#include "textflag.h"

// SHA-1 compression on the SHA extensions, after Intel's sha1_ni_transform.
// Registers: X0 = ABCD, X1/X2 = E (the two alternate), X3-X6 = the rolling
// message schedule, X7 = byte-flip mask, X8/X9 = E/ABCD saved at block
// start. SHA1RNDS4 runs four rounds; its immediate selects f and K.

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX // DX = end of the last whole block

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flipMask<>(SB), X7

loop:
	MOVO X1, X8
	MOVO X0, X9

	// Rounds 0-3
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-67: thirteen four-round groups, the schedule rotating
	// through X3-X6 and E alternating between X1 and X2. A group folds
	// the message words cur into E (ein), saves ABCD as the next group's E
	// (eout), runs four rounds with function k, and advances the schedule:
	// SHA1MSG2 finishes nxt, SHA1MSG1 starts prv, PXOR feeds nnx.
#define ROUNDS(k, ein, eout, cur, nxt, prv, nnx) \
	SHA1NEXTE cur, ein;    \
	MOVO      X0, eout;    \
	SHA1MSG2  cur, nxt;    \
	SHA1RNDS4 $k, ein, X0; \
	SHA1MSG1  cur, prv;    \
	PXOR      cur, nnx

	ROUNDS(0, X1, X2, X3, X4, X6, X5) // 16-19
	ROUNDS(1, X2, X1, X4, X5, X3, X6) // 20-23
	ROUNDS(1, X1, X2, X5, X6, X4, X3) // 24-27
	ROUNDS(1, X2, X1, X6, X3, X5, X4) // 28-31
	ROUNDS(1, X1, X2, X3, X4, X6, X5) // 32-35
	ROUNDS(1, X2, X1, X4, X5, X3, X6) // 36-39
	ROUNDS(2, X1, X2, X5, X6, X4, X3) // 40-43
	ROUNDS(2, X2, X1, X6, X3, X5, X4) // 44-47
	ROUNDS(2, X1, X2, X3, X4, X6, X5) // 48-51
	ROUNDS(2, X2, X1, X4, X5, X3, X6) // 52-55
	ROUNDS(2, X1, X2, X5, X6, X4, X3) // 56-59
	ROUNDS(3, X2, X1, X6, X3, X5, X4) // 60-63
	ROUNDS(3, X1, X2, X3, X4, X6, X5) // 64-67
#undef ROUNDS

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the block's starting state.
	SHA1NEXTE X8, X1
	PADDD     X9, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// flipMask byte-reverses a 16-byte lane: four big-endian message words into
// the order SHA1RNDS4 expects.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16
