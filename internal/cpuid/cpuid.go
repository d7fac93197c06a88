// Package cpuid reports the x86 instruction-set extensions the
// controller's crypto engines bind: AES-NI for the pad kernel in
// internal/encrypt and the SHA extensions for the MAC compression in
// internal/integrity. Both probes read one CPUID pass at start-up. Off
// amd64 every flag is false and the engines run their portable paths.
package cpuid

var (
	// HasAESNI reports the AES instructions (CPUID leaf 1 ECX bit 25).
	HasAESNI bool
	// HasSHANI reports the SHA extensions together with the SSSE3 and
	// SSE4.1 instructions the SHA-1 compression also uses.
	HasSHANI bool
)
