package integrity

import (
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
)

// macEngine is the controller's tag unit, the software counterpart of the
// paper's fixed-key HMAC engine beside the memory controller: HMAC-SHA-1
// with the key⊕ipad and key⊕opad blocks compressed once, at construction,
// into two midstates. A tag is then one compression call over the padded
// message (two blocks for the 74-byte data-MAC message) and one over a
// preformatted outer block. The compression runs on the CPU's SHA
// extensions where it has them and on a portable FIPS 180-1 loop
// otherwise (block). The from-scratch internal/crypto/hmac.Sized is the
// reference its tests check it against.
//
// An engine is not safe for concurrent use: the message and outer blocks
// live inside it.
type macEngine struct {
	inner, outer [5]uint32 // midstates after key⊕ipad and key⊕opad

	// buf holds prefix ‖ msg and its padding. out is the outer message:
	// the inner digest, then padding written once in newMACEngine.
	buf [2 * sha1.BlockSize]byte
	out [sha1.BlockSize]byte
	sum [sha1.Size]byte
}

// sha1IV is the FIPS 180-1 initial hash value.
var sha1IV = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// newMACEngine keys an engine. A key longer than a block is hashed first,
// as RFC 2104 specifies.
func newMACEngine(key []byte) *macEngine {
	if len(key) > sha1.BlockSize {
		k := sha1.Sum(key)
		key = k[:]
	}
	e := &macEngine{inner: sha1IV, outer: sha1IV}
	var pad [sha1.BlockSize]byte
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= 0x36
	}
	block(&e.inner, pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	block(&e.outer, pad[:])

	e.out[sha1.Size] = 0x80
	binary.BigEndian.PutUint64(e.out[sha1.BlockSize-8:], (sha1.BlockSize+sha1.Size)*8)
	return e
}

// tag computes HMAC(key, prefix ‖ msg) into e.sum. The optional one-byte
// prefix is the 256-bit width's domain separator.
func (e *macEngine) tag(prefix []byte, msg []byte) *[sha1.Size]byte {
	h := e.inner
	bitLen := uint64(sha1.BlockSize+len(prefix)+len(msg)) * 8 // the key block counts
	// Padding is a 0x80 byte and the 8-byte bit length, so buf can pad a
	// tail of up to len(buf)-9 bytes. A longer message (a group MAC)
	// streams whole blocks through buf until the tail fits.
	n := copy(e.buf[:], prefix)
	for n+len(msg) > len(e.buf)-9 {
		c := copy(e.buf[n:sha1.BlockSize], msg)
		block(&h, e.buf[:sha1.BlockSize])
		msg, n = msg[c:], 0
	}
	n += copy(e.buf[n:], msg)
	end := (n + 9 + sha1.BlockSize - 1) &^ (sha1.BlockSize - 1)
	e.buf[n] = 0x80
	clear(e.buf[n+1 : end-8])
	binary.BigEndian.PutUint64(e.buf[end-8:end], bitLen)
	block(&h, e.buf[:end])

	for i, v := range h {
		binary.BigEndian.PutUint32(e.out[4*i:], v)
	}
	h = e.outer
	block(&h, e.out[:])
	for i, v := range h {
		binary.BigEndian.PutUint32(e.sum[4*i:], v)
	}
	return &e.sum
}

// sizedInto writes the tag of msg truncated or widened to bits into dst,
// whose length must be bits/8; the stores validate bits at construction
// (layout.Geometry). Widths up to 160 truncate one HMAC-SHA-1 tag; 256
// concatenates HMAC(0x00 ‖ msg) and the first 12 bytes of HMAC(0x01 ‖ msg).
func (e *macEngine) sizedInto(dst, msg []byte, bits int) {
	if bits == 256 {
		copy(dst, e.tag(domain0[:], msg)[:])
		copy(dst[sha1.Size:], e.tag(domain1[:], msg)[:])
		return
	}
	copy(dst, e.tag(nil, msg)[:bits/8])
}

// Domain-separation prefixes for the 256-bit widening.
var (
	domain0 = [1]byte{0x00}
	domain1 = [1]byte{0x01}
)

// macEqual compares two MACs in constant time.
func macEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
