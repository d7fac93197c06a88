package shard

import (
	"context"
	"sync/atomic"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// End-to-end write throughput through the pool — queue, worker drain,
// coalesce, AISE encrypt, and the batched, coalescing Merkle tree pass
// with its write-back node cache. The tree engine's own before/after pair
// (serial reference walk vs batched engine) is BenchmarkTreeBatchSerialRef
// vs BenchmarkTreeBatch in internal/integrity.

const benchPoolBytes = 1024 * layout.PageSize // 512 tree leaves per shard

func benchPool(b *testing.B) *Pool {
	b.Helper()
	p, err := New(Config{
		Shards:     2,
		QueueDepth: 256,
		BatchMax:   32,
		Core: core.Config{
			DataBytes:           benchPoolBytes,
			MACBits:             128,
			Key:                 []byte("bench-pool-key16"),
			Encryption:          core.AISE,
			Integrity:           core.BonsaiMT,
			SwapSlots:           8,
			TreeUpdateWorkers:   4,
			TreeNodeCacheBlocks: 1024,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

func benchPoolWrites(b *testing.B, p *Pool, dataBytes uint64) {
	var seq atomic.Uint64
	stride := uint64(layout.PageSize + layout.BlockSize) // walks pages and shards
	b.SetBytes(layout.BlockSize)
	b.ReportAllocs()
	// Keep enough writes in flight that worker drains form real batches
	// even on a single-CPU host; otherwise every tree pass has one leaf
	// and the engines are indistinguishable.
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		val := make([]byte, layout.BlockSize)
		for pb.Next() {
			a := layout.Addr(seq.Add(1) * stride % dataBytes)
			val[0]++
			meta := core.Meta{VirtAddr: uint64(a) | 0x7f000000, PID: 42}
			if err := p.Write(ctx, a, val, meta); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPoolWriteBatchedTree(b *testing.B) {
	p := benchPool(b)
	benchPoolWrites(b, p, benchPoolBytes)
}
