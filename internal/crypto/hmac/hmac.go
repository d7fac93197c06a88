// Package hmac implements HMAC (RFC 2104) over the repository's SHA-1, plus
// the truncated/widened MAC sizes the paper's sensitivity study sweeps.
//
// The paper computes each data-block MAC as M = HMAC_K(C, ctr, addr) and
// evaluates MAC sizes of 32, 64, 128 and 256 bits (§7.3). SHA-1 natively
// yields 160 bits; smaller MACs are standard HMAC truncation, and the
// 256-bit MAC is produced by concatenating two domain-separated HMAC-SHA-1
// invocations. DESIGN.md records this substitution: the experiments vary MAC
// *width* (storage and traffic), which this construction preserves exactly.
//
// This is the readable reference construction. The service controller
// (internal/integrity) tags with crypto/hmac over crypto/sha1 and its tests
// check every width and message shape against Sized here.
package hmac

import (
	"errors"
	"fmt"

	"aisebmt/internal/crypto/sha1"
)

// MAC computes HMAC-SHA1(key, msg), returning the full 20-byte tag: the
// RFC 2104 derivation H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ msg)).
func MAC(key, msg []byte) [sha1.Size]byte {
	var k [sha1.BlockSize]byte
	if len(key) > sha1.BlockSize {
		sum := sha1.Sum160(key)
		copy(k[:], sum[:])
	} else {
		copy(k[:], key)
	}
	var ipad, opad [sha1.BlockSize]byte
	for i := range k {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	var inner, outer sha1.Digest
	inner.Write(ipad[:])
	inner.Write(msg)
	var innerSum, out [sha1.Size]byte
	inner.SumInto(&innerSum)
	outer.Write(opad[:])
	outer.Write(innerSum[:])
	outer.SumInto(&out)
	return out
}

// ValidSizes lists the MAC widths (in bits) accepted by Sized, matching the
// paper's §7.3 sweep.
var ValidSizes = []int{32, 64, 128, 160, 256}

// ErrMACSize reports an unsupported MAC width.
var ErrMACSize = errors.New("hmac: unsupported MAC size")

// Sized computes an HMAC tag truncated or widened to bits, which must be one
// of ValidSizes. Widths ≤160 truncate HMAC-SHA-1; 256 concatenates
// HMAC(key, 0x00 ‖ msg) and the first 12 bytes of HMAC(key, 0x01 ‖ msg).
func Sized(key, msg []byte, bits int) ([]byte, error) {
	switch bits {
	case 32, 64, 128, 160:
		tag := MAC(key, msg)
		return tag[:bits/8], nil
	case 256:
		t0 := MAC(key, append([]byte{0x00}, msg...))
		t1 := MAC(key, append([]byte{0x01}, msg...))
		return append(t0[:], t1[:12]...), nil
	default:
		return nil, fmt.Errorf("%w: %d bits", ErrMACSize, bits)
	}
}

// Equal reports whether two MACs are identical, comparing every byte
// regardless of early mismatch. The simulated hardware comparator is
// constant-time in the same way.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
