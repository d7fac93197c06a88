package cpuid

// cpuid executes CPUID with the given leaf and subleaf (cpuid_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		ssse3 = 1 << 9  // leaf 1 ECX
		sse41 = 1 << 19 // leaf 1 ECX
		aes   = 1 << 25 // leaf 1 ECX
		sha   = 1 << 29 // leaf 7 EBX
	)
	HasAESNI = ecx1&aes != 0
	if maxLeaf < 7 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	HasSHANI = ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}
