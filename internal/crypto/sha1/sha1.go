// Package sha1 implements the SHA-1 hash (FIPS 180-1) from scratch.
//
// The paper's MAC computation models HMAC based on SHA-1 with an 80-cycle
// hardware latency; this package is the readable FIPS 180-1 reference for
// the hash underneath that model. The service controller (internal/integrity)
// binds the standard library's crypto/sha1, and its tests check it against
// this package byte for byte. Tests here cross-check against the Go
// standard library.
//
// SHA-1 is used here for fidelity to the paper's 2007-era hardware
// assumptions, not as a recommendation: the repository is a simulator of a
// published architecture, and its security analysis treats the hash as an
// ideal keyed MAC exactly as the paper does.
package sha1

import "encoding/binary"

// Size is the SHA-1 digest size in bytes (160 bits).
const Size = 20

// BlockSize is the SHA-1 message block size in bytes.
const BlockSize = 64

// Digest is a streaming SHA-1 computation. The zero value is ready to use.
type Digest struct {
	h   [5]uint32
	buf [BlockSize]byte
	n   int    // bytes buffered in buf
	len uint64 // total message length in bytes
	ini bool
}

// New returns a new, initialized Digest.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset returns the digest to its initial state.
func (d *Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.n = 0
	d.len = 0
	d.ini = true
}

func (d *Digest) lazyInit() {
	if !d.ini {
		d.Reset()
	}
}

// Write absorbs p into the hash state. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	d.lazyInit()
	n := len(p)
	d.len += uint64(n)
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			d.block(d.buf[:])
			d.n = 0
		}
	}
	for len(p) >= BlockSize {
		d.block(p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.n = copy(d.buf[:], p)
	}
	return n, nil
}

// Sum appends the digest of everything written so far to b and returns the
// result. It does not modify the underlying state.
func (d *Digest) Sum(b []byte) []byte {
	var out [Size]byte
	d.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto writes the digest of everything written so far into out without
// allocating. Like Sum, it does not modify the underlying state, so it can
// be called repeatedly or interleaved with Write.
func (d *Digest) SumInto(out *[Size]byte) {
	d.lazyInit()
	cp := *d // finalize a copy: padding must not disturb the running state
	msgBits := cp.len * 8
	i := cp.n
	cp.buf[i] = 0x80
	i++
	if i > 56 {
		for ; i < BlockSize; i++ {
			cp.buf[i] = 0
		}
		cp.block(cp.buf[:])
		i = 0
	}
	for ; i < 56; i++ {
		cp.buf[i] = 0
	}
	binary.BigEndian.PutUint64(cp.buf[56:], msgBits)
	cp.block(cp.buf[:])
	for j, v := range cp.h {
		binary.BigEndian.PutUint32(out[4*j:], v)
	}
}

// block is the compression function: the direct FIPS 180-1 80-iteration
// loop with the expanded message schedule.
func (d *Digest) block(p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 80; i++ {
		v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = v<<1 | v>>31
	}
	a, b, c, dd, e := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & dd)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ dd
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & dd) | (c & dd)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ dd
			k = 0xCA62C1D6
		}
		t := (a<<5 | a>>27) + f + e + k + w[i]
		e = dd
		dd = c
		c = b<<30 | b>>2
		b = a
		a = t
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
}

// Sum160 computes the SHA-1 digest of data in one call without allocating.
func Sum160(data []byte) [Size]byte {
	var d Digest
	d.Reset()
	d.Write(data)
	var out [Size]byte
	d.SumInto(&out)
	return out
}
