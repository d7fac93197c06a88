package encrypt

import (
	"fmt"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// BenchmarkPads times EncryptSpan — seed composition, the pad kernel and
// the XOR — over runs of 1, 4 and 64 blocks (4, 16 and 256 pads) on each
// kernel. 64 blocks is a whole-page span, the mem_bulk request.
func BenchmarkPads(b *testing.B) {
	for _, aesni := range []bool{true, false} {
		kernel := "portable"
		if aesni {
			kernel = "aesni"
		}
		for _, n := range []int{1, 4, layout.BlocksPerPage} {
			b.Run(fmt.Sprintf("%s/%d", kernel, n), func(b *testing.B) {
				if !setKernel(b, aesni) {
					b.Skip("no AES-NI on this CPU")
				}
				e, err := NewCounterMode(testKey, AISESeed{})
				if err != nil {
					b.Fatal(err)
				}
				var minors [layout.BlocksPerPage]uint8
				blocks := make([]mem.Block, n)
				b.SetBytes(int64(n * layout.BlockSize))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					minors[0] = uint8(i)
					e.EncryptSpan(blocks, blocks, 7, &minors, 0)
				}
			})
		}
	}
}
