package integrity

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/subtle"
	"hash"
)

// macEngine is the controller's tag unit: crypto/hmac over crypto/sha1,
// the software counterpart of the paper's fixed-key HMAC engine beside the
// memory controller. It is reset once when built, which makes crypto/hmac
// cache the key⊕ipad and key⊕opad midstates; every later Reset restores
// them instead of re-absorbing the key. The from-scratch
// internal/crypto/hmac.Sized is the reference its tests check it against.
//
// An engine is not safe for concurrent use: hash state lives inside it.
type macEngine struct {
	h hash.Hash

	// buf stages each message on its way into h, and sum receives the
	// tag. Slices passed through the hash.Hash interface escape, so the
	// engine owns them rather than borrowing the caller's (often stack)
	// buffers. Longer messages stream through buf in chunks.
	buf [128]byte
	sum [sha1.Size]byte
}

// newMACEngine keys an engine.
func newMACEngine(key []byte) *macEngine {
	e := &macEngine{h: hmac.New(sha1.New, key)}
	e.h.Reset()
	return e
}

// tag computes HMAC(key, prefix ‖ msg) into e.sum. The optional one-byte
// prefix is the 256-bit width's domain separator.
func (e *macEngine) tag(prefix []byte, msg []byte) *[sha1.Size]byte {
	e.h.Reset()
	n := copy(e.buf[:], prefix)
	for {
		c := copy(e.buf[n:], msg)
		e.h.Write(e.buf[:n+c])
		msg = msg[c:]
		if len(msg) == 0 {
			break
		}
		n = 0
	}
	e.h.Sum(e.sum[:0])
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
