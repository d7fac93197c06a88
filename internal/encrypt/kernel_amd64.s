#include "textflag.h"

// AES-128 on the AES instructions. The round keys are the eleven 16-byte
// words of the FIPS-197 schedule in byte order, as crypto/aes lays them out
// for its own AES-NI path.

// EXPAND derives the next round key into X0 from the previous one in X0
// and the AESKEYGENASSIST word for rcon; X4 must start zero.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	SHUFPS $0x10, X0, X4; \
	PXOR   X4, X0; \
	SHUFPS $0x8c, X0, X4; \
	PXOR   X4, X0; \
	PXOR   X1, X0; \
	MOVUPS X0, off(BX)

// func expandKeyAESNI(key *[16]byte, rk *[176]byte)
TEXT ·expandKeyAESNI(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	PXOR   X4, X4
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// ROUND8 applies round key off(AX) to the eight lanes X0-X7 through X8.
#define ROUND8(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0; \
	op     X8, X1; \
	op     X8, X2; \
	op     X8, X3; \
	op     X8, X4; \
	op     X8, X5; \
	op     X8, X6; \
	op     X8, X7

#define ROUND4(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0; \
	op     X8, X1; \
	op     X8, X2; \
	op     X8, X3

#define ROUND1(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0

// ROUNDS runs the whole cipher on the lanes one ROUNDn macro covers.
#define ROUNDS(R) \
	R(PXOR, 0); \
	R(AESENC, 16); \
	R(AESENC, 32); \
	R(AESENC, 48); \
	R(AESENC, 64); \
	R(AESENC, 80); \
	R(AESENC, 96); \
	R(AESENC, 112); \
	R(AESENC, 128); \
	R(AESENC, 144); \
	R(AESENCLAST, 160)

// func encryptLanesAESNI(rk *[176]byte, buf []byte)
//
// Encrypts every whole 16-byte lane of buf in place: eight independent
// lanes at a time while eight remain, so the AES unit's pipeline stays
// full, then four, then one.
TEXT ·encryptLanesAESNI(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ buf_base+8(FP), DI
	MOVQ buf_len+16(FP), CX
	SHRQ $4, CX

lanes8:
	CMPQ   CX, $8
	JB     lanes4
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	ROUNDS(ROUND8)
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	SUBQ   $8, CX
	JMP    lanes8

lanes4:
	CMPQ   CX, $4
	JB     lanes1
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	ROUNDS(ROUND4)
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	SUBQ   $4, CX
	JMP    lanes4

lanes1:
	TESTQ  CX, CX
	JZ     done
	MOVUPS 0(DI), X0
	ROUNDS(ROUND1)
	MOVUPS X0, 0(DI)
	ADDQ   $16, DI
	DECQ   CX
	JMP    lanes1

done:
	RET
