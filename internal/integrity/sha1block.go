package integrity

import (
	"encoding/binary"
	"math/bits"
)

// SHA-1 round constants (FIPS 180-1 §6).
const (
	sha1K0 = 0x5A827999
	sha1K1 = 0x6ED9EBA1
	sha1K2 = 0x8F1BBCDC
	sha1K3 = 0xCA62C1D6
)

// blockGeneric is the portable SHA-1 compression: it folds every whole
// 64-byte block of p into h. block uses it where the CPU has no SHA
// extensions.
func blockGeneric(h *[5]uint32, p []byte) {
	var w [16]uint32
	h0, h1, h2, h3, h4 := h[0], h[1], h[2], h[3], h[4]
	for ; len(p) >= 64; p = p[64:] {
		for i := range w {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		a, b, c, d, e := h0, h1, h2, h3, h4

		// The four 20-round stages differ only in f and K; from round
		// 16 on, w is the rolling 16-word message schedule.
		i := 0
		for ; i < 16; i++ {
			t := bits.RotateLeft32(a, 5) + (b&c | ^b&d) + e + w[i] + sha1K0
			a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
		}
		for ; i < 20; i++ {
			w[i&15] = bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
			t := bits.RotateLeft32(a, 5) + (b&c | ^b&d) + e + w[i&15] + sha1K0
			a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
		}
		for ; i < 40; i++ {
			w[i&15] = bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
			t := bits.RotateLeft32(a, 5) + (b ^ c ^ d) + e + w[i&15] + sha1K1
			a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
		}
		for ; i < 60; i++ {
			w[i&15] = bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
			t := bits.RotateLeft32(a, 5) + ((b|c)&d | b&c) + e + w[i&15] + sha1K2
			a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
		}
		for ; i < 80; i++ {
			w[i&15] = bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
			t := bits.RotateLeft32(a, 5) + (b ^ c ^ d) + e + w[i&15] + sha1K3
			a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
		}

		h0 += a
		h1 += b
		h2 += c
		h3 += d
		h4 += e
	}
	h[0], h[1], h[2], h[3], h[4] = h0, h1, h2, h3, h4
}
