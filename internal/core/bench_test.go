package core

import (
	"testing"

	"aisebmt/internal/layout"
)

// Microbenchmarks for the page-span pipeline at the daemon's per-shard
// configuration (AISE+BMT, 8MiB, write-back node cache on). The unit of
// work is one page-aligned 4KiB op — the mem_bulk request — or one
// full-region sweep.

const benchDataBytes = 8 << 20

func benchSM(b *testing.B) *SecureMemory {
	b.Helper()
	s, err := New(Config{
		DataBytes:           benchDataBytes,
		MACBits:             128,
		Key:                 testKey,
		Encryption:          AISE,
		Integrity:           BonsaiMT,
		SwapSlots:           64,
		TreeUpdateWorkers:   4,
		TreeNodeCacheBlocks: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, layout.PageSize)
	for i := range page {
		page[i] = byte(i * 31)
	}
	for a := layout.Addr(0); a < benchDataBytes; a += layout.PageSize {
		if err := s.Write(a, page, Meta{}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchPage scatters consecutive iterations over the region so the tree
// walks do not all share one leaf.
func benchPage(i int) layout.Addr {
	const pages = benchDataBytes / layout.PageSize
	return layout.Addr(i*769%pages) * layout.PageSize
}

func BenchmarkRead4K(b *testing.B) {
	s := benchSM(b)
	buf := make([]byte, layout.PageSize)
	b.SetBytes(layout.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(benchPage(i), buf, Meta{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite4K(b *testing.B) {
	s := benchSM(b)
	buf := make([]byte, layout.PageSize)
	b.SetBytes(layout.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		// The shard worker brackets every drained batch with a tree-batch
		// window; one op per window is its worst case.
		s.BeginTreeBatch()
		if err := s.Write(benchPage(i), buf, Meta{}); err != nil {
			b.Fatal(err)
		}
		if err := s.EndTreeBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyAll(b *testing.B) {
	s := benchSM(b)
	b.SetBytes(benchDataBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.VerifyAll(); err != nil {
			b.Fatal(err)
		}
	}
}
