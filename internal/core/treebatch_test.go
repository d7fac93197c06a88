package core

import (
	"bytes"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

func batchConfig() Config {
	return Config{
		DataBytes: 128 << 10, MACBits: 128, Key: testKey,
		Encryption: AISE, Integrity: BonsaiMT, SwapSlots: 8,
	}
}

// writeSpread writes the same deterministic pattern to both controllers.
func writeSpread(t *testing.T, sm *SecureMemory, seed byte) {
	t.Helper()
	for i := 0; i < 40; i++ {
		a := layout.Addr(i%20) * 0x1000 // repeated pages: coalescing fodder
		blk := pattern(seed + byte(i))
		if err := sm.WriteBlock(a, &blk, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTreeBatchMatchesEager drives identical writes through an eager
// controller and a batched one (with and without the node cache); roots
// must agree at every End, and reads mid-batch must verify via the
// barrier.
func TestTreeBatchMatchesEager(t *testing.T) {
	for _, cacheBlocks := range []int{0, 256} {
		eager, err := New(batchConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := batchConfig()
		cfg.TreeUpdateWorkers = 4
		cfg.TreeNodeCacheBlocks = cacheBlocks
		batched, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := byte(0); round < 3; round++ {
			writeSpread(t, eager, round)
			batched.BeginTreeBatch()
			writeSpread(t, batched, round)
			// A read mid-batch must see the deferred updates committed.
			var got mem.Block
			if err := batched.ReadBlock(0x1000, &got, Meta{}); err != nil {
				t.Fatalf("mid-batch read: %v", err)
			}
			if got != pattern(round+21) {
				t.Fatal("mid-batch read returned stale data")
			}
			if err := batched.EndTreeBatch(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(eager.Root(), batched.Root()) {
				t.Fatalf("cache=%d round=%d: batched root diverged from eager root", cacheBlocks, round)
			}
		}
		if err := batched.VerifyAll(); err != nil {
			t.Fatalf("cache=%d: VerifyAll after batching: %v", cacheBlocks, err)
		}
		st := batched.Stats()
		if st.TreeBatches == 0 || st.TreeNodesCoalesced == 0 {
			t.Fatalf("cache=%d: batching did not engage: %+v", cacheBlocks, st)
		}
		if cacheBlocks > 0 && st.TreeWBHits == 0 {
			t.Fatalf("node cache saw no hits: %+v", st)
		}
	}
}

// TestTreeBatchNested checks that nested windows commit only at the
// outermost End, and that AbortTreeBatch discards pending work.
func TestTreeBatchNested(t *testing.T) {
	cfg := batchConfig()
	cfg.TreeUpdateWorkers = 2
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm.BeginTreeBatch()
	sm.BeginTreeBatch()
	blk := pattern(1)
	if err := sm.WriteBlock(0x2000, &blk, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := sm.EndTreeBatch(); err != nil {
		t.Fatal(err)
	}
	if sm.Stats().TreeBatches != 0 {
		t.Fatal("inner End committed the batch")
	}
	if err := sm.EndTreeBatch(); err != nil {
		t.Fatal(err)
	}
	if sm.Stats().TreeBatches != 1 {
		t.Fatal("outer End did not commit the batch")
	}

	// Abort: pending updates are dropped, the next window starts clean.
	sm2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm2.BeginTreeBatch()
	if err := sm2.WriteBlock(0x2000, &blk, Meta{}); err != nil {
		t.Fatal(err)
	}
	sm2.AbortTreeBatch()
	if sm2.Stats().TreeBatches != 0 {
		t.Fatal("aborted batch committed")
	}
}

// TestTreeBatchHibernateMidWindow seals a checkpoint while a window is
// open with dirty cached nodes: the flush-before-seal invariant must make
// the image self-consistent, and resume must verify clean.
func TestTreeBatchHibernateMidWindow(t *testing.T) {
	cfg := batchConfig()
	cfg.TreeUpdateWorkers = 4
	cfg.TreeNodeCacheBlocks = 64
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm.BeginTreeBatch()
	writeSpread(t, sm, 9)
	var img bytes.Buffer
	chip, err := sm.Hibernate(&img) // mid-window: barrier + flush inside
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.EndTreeBatch(); err != nil {
		t.Fatal(err)
	}
	resumeCfg := batchConfig() // eager, cacheless: must accept the image
	sm2, err := Resume(resumeCfg, chip, &img)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm2.VerifyAll(); err != nil {
		t.Fatalf("resumed image does not verify (flush-before-seal broken): %v", err)
	}
	var got mem.Block
	if err := sm2.ReadBlock(0x3000, &got, Meta{}); err != nil {
		t.Fatal(err)
	}
	if got != pattern(9+3+20) { // i=23 wrote page 3
		t.Fatal("resumed data mismatch")
	}
}

// TestTreeBatchSwapMidWindow exercises the swap path's barrier: swap-out
// and swap-in inside an open window must see committed tree state.
func TestTreeBatchSwapMidWindow(t *testing.T) {
	cfg := batchConfig()
	cfg.TreeUpdateWorkers = 2
	cfg.TreeNodeCacheBlocks = 64
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm.BeginTreeBatch()
	blk := pattern(0x77)
	if err := sm.WriteBlock(0x5000, &blk, Meta{}); err != nil {
		t.Fatal(err)
	}
	img, err := sm.SwapOut(0x5000, 3) // barrier inside
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.SwapIn(img, 0x5000, 3); err != nil {
		t.Fatal(err)
	}
	if err := sm.EndTreeBatch(); err != nil {
		t.Fatal(err)
	}
	var got mem.Block
	if err := sm.ReadBlock(0x5000, &got, Meta{}); err != nil {
		t.Fatal(err)
	}
	if got != blk {
		t.Fatal("swapped page lost its contents")
	}
	if err := sm.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
