package integrity

import "aisebmt/internal/cpuid"

// haveSHANI reports whether the CPU has the SHA extensions and the SSSE3
// and SSE4.1 instructions blockSHANI also uses.
var haveSHANI = cpuid.HasSHANI

// useSHANI selects blockSHANI in block. It is a variable, not a constant,
// only so the tests can run the portable compression on the same CPU.
var useSHANI = haveSHANI

// block folds every whole 64-byte block of p into h. It dispatches with a
// branch rather than through a func value: a call through a func value
// makes every caller's state escape to the heap.
func block(h *[5]uint32, p []byte) {
	if useSHANI {
		blockSHANI(h, p)
		return
	}
	blockGeneric(h, p)
}

// blockSHANI is the SHA-1 compression on the SHA extensions
// (sha1block_amd64.s).
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
