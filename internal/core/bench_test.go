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

// benchSM returns a controller with every page written.
func benchSM(b *testing.B) *SecureMemory {
	b.Helper()
	s := benchEmptySM(b)
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

// benchConfig is the daemon's per-shard configuration.
var benchConfig = Config{
	DataBytes:           benchDataBytes,
	MACBits:             128,
	Key:                 testKey,
	Encryption:          AISE,
	Integrity:           BonsaiMT,
	SwapSlots:           64,
	TreeUpdateWorkers:   4,
	TreeNodeCacheBlocks: 1024,
}

// benchEmptySM returns a controller no page of which was ever written.
func benchEmptySM(b *testing.B) *SecureMemory {
	b.Helper()
	s, err := New(benchConfig)
	if err != nil {
		b.Fatal(err)
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

// BenchmarkNew boots one shard: lay out its memory and build the tree over
// its never-written counter blocks, what a daemon pays per shard at start.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyAll sweeps a never-written region (/empty: what an
// in-memory daemon verifies on restart, counter blocks and tree nodes
// only) and a fully written one (/full: every data MAC too).
func BenchmarkVerifyAll(b *testing.B) {
	for _, c := range []struct {
		name string
		sm   func(*testing.B) *SecureMemory
	}{{"empty", benchEmptySM}, {"full", benchSM}} {
		b.Run(c.name, func(b *testing.B) {
			s := c.sm(b)
			b.SetBytes(benchDataBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.VerifyAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
