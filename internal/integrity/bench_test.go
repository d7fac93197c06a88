package integrity

import (
	"fmt"
	"math/rand"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// Microbenchmarks for the batched tree-update engine against its frozen
// serial reference (ref_test.go). Both live in one binary, so old and new
// run under identical conditions:
//
//	go test -run=none -bench 'TreeBatch' -count=3 ./internal/integrity/
//
// The unit of work is one shard-drain-sized batch of leaf updates
// (benchBatchLen leaves), so ns/op is directly comparable between the
// serial replay and the coalesced pass.

const (
	benchRegionSize = 1 << 20 // 16384 leaves, 7 MAC levels at 128-bit nodes
	benchBatchLen   = 256
)

func benchTree(b *testing.B, cacheBlocks int) *Tree {
	b.Helper()
	m := mem.New(4 << 20)
	regions := []mem.Region{{Name: "d", Base: 0, Size: benchRegionSize}}
	tr, err := NewTree(m, goldenKey, 128, regions, 2<<20)
	if err != nil {
		b.Fatal(err)
	}
	tr.Build()
	if cacheBlocks > 0 {
		tr.EnableNodeCache(cacheBlocks)
	}
	return tr
}

// benchBatch returns a deterministic batch of distinct leaf addresses
// with shard-like locality: short runs of neighbouring blocks on
// scattered pages, the shape a worker drain hands UpdateBatch.
func benchBatch() []layout.Addr {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[layout.Addr]bool, benchBatchLen)
	addrs := make([]layout.Addr, 0, benchBatchLen)
	for len(addrs) < benchBatchLen {
		page := layout.Addr(rng.Intn(benchRegionSize/int(layout.PageSize))) * layout.PageSize
		block := rng.Intn(int(layout.BlocksPerPage))
		run := 1 + rng.Intn(4)
		for j := 0; j < run && len(addrs) < benchBatchLen; j++ {
			a := page + layout.Addr((block+j)%int(layout.BlocksPerPage))*layout.BlockSize
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
	}
	return addrs
}

// BenchmarkTreeBatchSerialRef replays one batch through the frozen
// serial leaf-to-root reference walk — the "old" side of every pair.
func BenchmarkTreeBatchSerialRef(b *testing.B) {
	tr := benchTree(b, 0)
	addrs := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			if err := tr.UpdateBlockRef(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTreeBatch runs the same batch through the coalescing engine
// at each worker-pool width.
func BenchmarkTreeBatch(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tr := benchTree(b, 0)
			addrs := benchBatch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.UpdateBatch(addrs, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeBatchCached adds the write-back node cache on top of the
// 4-worker engine: steady-state batches hit cached interior nodes and
// skip the off-chip reads and writebacks entirely.
func BenchmarkTreeBatchCached(b *testing.B) {
	tr := benchTree(b, 1024)
	addrs := benchBatch()
	if err := tr.UpdateBatch(addrs, 4); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.UpdateBatch(addrs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTag keeps BenchmarkMACEngine's tags live.
var benchTag [20]byte

// BenchmarkMACEngine times one tag on each compression over the two
// messages the controller tags most: the 74-byte data-MAC message
// (C ‖ LPID ‖ minor ‖ block index) and a 64-byte tree node.
func BenchmarkMACEngine(b *testing.B) {
	for _, shani := range []bool{true, false} {
		name := "portable"
		if shani {
			name = "shani"
		}
		b.Run(name, func(b *testing.B) {
			if !setCompression(b, shani) {
				b.Skip("no SHA extensions on this CPU")
			}
			e := newMACEngine(goldenKey)
			for _, m := range []struct {
				name string
				n    int
			}{{"data74", 74}, {"node64", 64}} {
				msg := make([]byte, m.n)
				b.Run(m.name, func(b *testing.B) {
					b.SetBytes(int64(m.n))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						benchTag = *e.tag(nil, msg)
					}
				})
			}
		})
	}
}
