package encrypt

import "aisebmt/internal/cpuid"

// haveAESNI reports whether the CPU has the AES instructions.
var haveAESNI = cpuid.HasAESNI

// useAESNI selects the AES-NI kernel in encryptLanes. It is a variable,
// not a constant, only so the tests can run the portable kernel on the
// same CPU.
var useAESNI = haveAESNI

// expandKey fills rk with the AES-128 round keys of key when the CPU can
// run the AES-NI kernel; the portable kernel keys crypto/aes instead.
func expandKey(rk *roundKeys, key *[16]byte) {
	if haveAESNI {
		expandKeyAESNI(key, rk)
	}
}

// encryptLanes encrypts every 16-byte lane of buf in place. It dispatches
// with a branch rather than through a func value, as the MAC engine's
// compression does, so no caller state escapes.
func (c *CounterMode) encryptLanes(buf []byte) {
	if useAESNI {
		encryptLanesAESNI(&c.rk, buf)
		return
	}
	c.encryptLanesPortable(buf)
}

// expandKeyAESNI derives the AES-128 schedule with AESKEYGENASSIST
// (kernel_amd64.s).
//
//go:noescape
func expandKeyAESNI(key *[16]byte, rk *roundKeys)

// encryptLanesAESNI is the 8/4/1-lane AESENC kernel (kernel_amd64.s).
//
//go:noescape
func encryptLanesAESNI(rk *roundKeys, buf []byte)
