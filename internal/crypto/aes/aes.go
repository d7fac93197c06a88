// Package aes implements the AES-128 block cipher (FIPS 197) from scratch.
//
// The secure processor modeled in this repository uses AES both as the
// counter-mode pad generator (AISE and the baseline counter schemes) and as
// the direct-encryption block cipher for the direct-mode baseline. The
// service controller (internal/encrypt) binds the standard library's
// crypto/aes, which uses the CPU's AES instructions the way the paper's
// controller uses its pipelined AES unit; this package is the readable
// reference that the controller's tests check it against byte for byte.
// The S-box is derived at package initialization from the multiplicative
// inverse in GF(2^8) followed by the FIPS 197 affine transformation, and
// round keys are expanded with the standard key schedule. Tests cross-check
// it against the Go standard library and the FIPS 197 appendix vectors.
package aes

import (
	"errors"
	"fmt"
)

// BlockSize is the AES block size in bytes. One encryption "chunk" in the
// paper's terminology is one AES block (128 bits).
const BlockSize = 16

// KeySize is the AES-128 key size in bytes. The secure processor holds one
// such secret key in on-chip non-volatile storage.
const KeySize = 16

const (
	numRounds   = 10 // AES-128 rounds
	roundKeyLen = 4 * (numRounds + 1)
)

var (
	sbox    [256]byte
	invSbox [256]byte
	// mul2/mul3 etc. are multiplication tables in GF(2^8) for MixColumns.
	mul2, mul3, mul9, mul11, mul13, mul14 [256]byte
	rcon                                  [11]byte
)

// xtime multiplies by x (i.e. 2) in GF(2^8) modulo x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return (b << 1) ^ 0x1b
	}
	return b << 1
}

// gmul multiplies two elements of GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func init() {
	// Generate the S-box: multiplicative inverse followed by the affine map.
	// 0 maps to 0x63 by definition.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		// Affine transformation: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		invSbox[y] = byte(i)
	}
	for i := 0; i < 256; i++ {
		b := byte(i)
		mul2[i] = gmul(b, 2)
		mul3[i] = gmul(b, 3)
		mul9[i] = gmul(b, 9)
		mul11[i] = gmul(b, 11)
		mul13[i] = gmul(b, 13)
		mul14[i] = gmul(b, 14)
	}
	rcon[1] = 0x01
	for i := 2; i < len(rcon); i++ {
		rcon[i] = xtime(rcon[i-1])
	}
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// Cipher is an expanded AES-128 key ready to encrypt and decrypt blocks.
// A Cipher is safe for concurrent use: all methods only read the schedule.
type Cipher struct {
	enc [roundKeyLen]uint32
	dec [roundKeyLen]uint32
}

// ErrKeySize reports a key of the wrong length.
var ErrKeySize = errors.New("aes: key must be 16 bytes (AES-128)")

// New expands key into an AES-128 cipher.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w: got %d", ErrKeySize, len(key))
	}
	c := &Cipher{}
	c.expandKey(key)
	return c, nil
}

// subWord applies the S-box to each byte of a word.
func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func (c *Cipher) expandKey(key []byte) {
	for i := 0; i < 4; i++ {
		c.enc[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < roundKeyLen; i++ {
		t := c.enc[i-1]
		if i%4 == 0 {
			t = subWord(rotWord(t)) ^ uint32(rcon[i/4])<<24
		}
		c.enc[i] = c.enc[i-4] ^ t
	}
	// Decryption schedule: reversed round keys with InvMixColumns applied to
	// the middle rounds (equivalent inverse cipher, FIPS 197 §5.3.5).
	for i := 0; i < roundKeyLen; i += 4 {
		src := roundKeyLen - 4 - i
		for j := 0; j < 4; j++ {
			w := c.enc[src+j]
			if i > 0 && i < roundKeyLen-4 {
				w = invMixWord(w)
			}
			c.dec[i+j] = w
		}
	}
}

func invMixWord(w uint32) uint32 {
	b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	return uint32(mul14[b0]^mul11[b1]^mul13[b2]^mul9[b3])<<24 |
		uint32(mul9[b0]^mul14[b1]^mul11[b2]^mul13[b3])<<16 |
		uint32(mul13[b0]^mul9[b1]^mul14[b2]^mul11[b3])<<8 |
		uint32(mul11[b0]^mul13[b1]^mul9[b2]^mul14[b3])
}

// Encrypt encrypts the 16-byte block src into dst. dst and src may overlap
// entirely or not at all. It is the direct FIPS-197 state-array
// implementation: each round is SubBytes, ShiftRows, MixColumns and
// AddRoundKey written out over a 4×4 byte state.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var st [4][4]byte // state[row][col]
	for i := 0; i < 16; i++ {
		st[i%4][i/4] = src[i]
	}
	addRoundKey(&st, c.enc[0:4])
	for round := 1; round < numRounds; round++ {
		subBytes(&st)
		shiftRows(&st)
		mixColumns(&st)
		addRoundKey(&st, c.enc[4*round:4*round+4])
	}
	subBytes(&st)
	shiftRows(&st)
	addRoundKey(&st, c.enc[4*numRounds:4*numRounds+4])
	for i := 0; i < 16; i++ {
		dst[i] = st[i%4][i/4]
	}
}

// Decrypt decrypts the 16-byte block src into dst.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var st [4][4]byte
	for i := 0; i < 16; i++ {
		st[i%4][i/4] = src[i]
	}
	addRoundKey(&st, c.dec[0:4])
	for round := 1; round < numRounds; round++ {
		invSubBytes(&st)
		invShiftRows(&st)
		invMixColumns(&st)
		addRoundKey(&st, c.dec[4*round:4*round+4])
	}
	invSubBytes(&st)
	invShiftRows(&st)
	addRoundKey(&st, c.dec[4*numRounds:4*numRounds+4])
	for i := 0; i < 16; i++ {
		dst[i] = st[i%4][i/4]
	}
}

func addRoundKey(st *[4][4]byte, rk []uint32) {
	for col := 0; col < 4; col++ {
		w := rk[col]
		st[0][col] ^= byte(w >> 24)
		st[1][col] ^= byte(w >> 16)
		st[2][col] ^= byte(w >> 8)
		st[3][col] ^= byte(w)
	}
}

func subBytes(st *[4][4]byte) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			st[r][c] = sbox[st[r][c]]
		}
	}
}

func invSubBytes(st *[4][4]byte) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			st[r][c] = invSbox[st[r][c]]
		}
	}
}

func shiftRows(st *[4][4]byte) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[c] = st[r][(c+r)%4]
		}
		st[r] = tmp
	}
}

func invShiftRows(st *[4][4]byte) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[(c+r)%4] = st[r][c]
		}
		st[r] = tmp
	}
}

func mixColumns(st *[4][4]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := st[0][c], st[1][c], st[2][c], st[3][c]
		st[0][c] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3
		st[1][c] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3
		st[2][c] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3]
		st[3][c] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3]
	}
}

func invMixColumns(st *[4][4]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := st[0][c], st[1][c], st[2][c], st[3][c]
		st[0][c] = mul14[a0] ^ mul11[a1] ^ mul13[a2] ^ mul9[a3]
		st[1][c] = mul9[a0] ^ mul14[a1] ^ mul11[a2] ^ mul13[a3]
		st[2][c] = mul13[a0] ^ mul9[a1] ^ mul14[a2] ^ mul11[a3]
		st[3][c] = mul11[a0] ^ mul13[a1] ^ mul9[a2] ^ mul14[a3]
	}
}
