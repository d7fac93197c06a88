package integrity

// haveSHANI reports whether the CPU has the SHA extensions and the SSSE3
// and SSE4.1 instructions blockSHANI also uses.
var haveSHANI = cpuHasSHANI()

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

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func cpuHasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3  = 1 << 9  // leaf 1 ECX
		sse41  = 1 << 19 // leaf 1 ECX
		shaExt = 1 << 29 // leaf 7 EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&shaExt != 0
}
