package shard

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

func hookCfg() Config {
	return Config{
		Shards:     2,
		QueueDepth: 16,
		BatchMax:   8,
		Core: core.Config{
			DataBytes:  2 * 8 * layout.PageSize,
			MACBits:    64,
			Key:        []byte("hook-test-key-16"),
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  4,
		},
	}
}

// recHook records every committed op and can be set to fail.
type recHook struct {
	mu   sync.Mutex
	ops  map[int][]MutOp
	fail error
}

func (h *recHook) Commit(shard int, ops []MutOp) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	if h.ops == nil {
		h.ops = make(map[int][]MutOp)
	}
	for _, op := range ops {
		// Data aliases the submitter's buffer; a real hook serializes it
		// before returning, so copy here too.
		op.Data = append([]byte(nil), op.Data...)
		h.ops[shard] = append(h.ops[shard], op)
	}
	return nil
}

// TestCommitHookSeesMutationsInOrder: every acknowledged write reaches
// the hook, in execution order, with reads invisible.
func TestCommitHookSeesMutationsInOrder(t *testing.T) {
	pool, err := New(hookCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	h := &recHook{}
	pool.SetCommitHook(h)

	ctx := context.Background()
	addr := layout.Addr(0) // one address: all ops land on one shard, in order
	for i := 0; i < 10; i++ {
		v := bytes.Repeat([]byte{byte(i + 1)}, layout.BlockSize)
		if err := pool.Write(ctx, addr, v, core.Meta{VirtAddr: 0x1000, PID: 3}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		buf := make([]byte, layout.BlockSize)
		if err := pool.Read(ctx, addr, buf, core.Meta{VirtAddr: 0x1000, PID: 3}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	var got []MutOp
	for _, ops := range h.ops {
		got = append(got, ops...)
	}
	if len(got) != 10 {
		t.Fatalf("hook saw %d ops, want 10 writes (reads must not commit)", len(got))
	}
	for i, op := range got {
		if op.Kind != MutWrite || op.Addr != 0 || op.Virt != 0x1000 || op.PID != 3 {
			t.Fatalf("op %d = %+v", i, op)
		}
		if op.Data[0] != byte(i+1) {
			t.Fatalf("op %d out of order: data starts with %d, want %d", i, op.Data[0], i+1)
		}
	}
}

// TestCommitHookSeesSwaps: swap-out and swap-in are mutations too.
func TestCommitHookSeesSwaps(t *testing.T) {
	pool, err := New(hookCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	h := &recHook{}
	pool.SetCommitHook(h)

	ctx := context.Background()
	img, err := pool.SwapOut(ctx, 0, 2)
	if err != nil {
		t.Fatalf("SwapOut: %v", err)
	}
	if err := pool.SwapIn(ctx, img, 0, 2); err != nil {
		t.Fatalf("SwapIn: %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ops := h.ops[0]
	if len(ops) != 2 || ops[0].Kind != MutSwapOut || ops[1].Kind != MutSwapIn {
		t.Fatalf("hook saw %+v, want swapout then swapin", ops)
	}
	if ops[0].Slot != 2 || ops[1].Img == nil {
		t.Fatalf("swap details lost: %+v", ops)
	}
}

// TestCommitHookFailureFailsBatchUnexecuted: when the hook rejects a
// batch, the writes report the error and the data does not change — the
// pool refuses to apply what it cannot log.
func TestCommitHookFailureFailsBatchUnexecuted(t *testing.T) {
	pool, err := New(hookCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	addr := layout.Addr(64)
	before := bytes.Repeat([]byte{0x11}, layout.BlockSize)
	if err := pool.Write(ctx, addr, before, core.Meta{}); err != nil {
		t.Fatal(err)
	}

	wantErr := errors.New("log unavailable")
	pool.SetCommitHook(&recHook{fail: wantErr})
	err = pool.Write(ctx, addr, bytes.Repeat([]byte{0x22}, layout.BlockSize), core.Meta{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("write under failing hook: got %v, want %v", err, wantErr)
	}

	pool.SetCommitHook(nil)
	buf := make([]byte, layout.BlockSize)
	if err := pool.Read(ctx, addr, buf, core.Meta{}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(buf, before) {
		t.Fatal("failed commit still mutated the shard")
	}
	if err := pool.Verify(ctx); err != nil {
		t.Fatalf("verify after failed commit: %v", err)
	}
}

// TestReplayOpRebuildsState: feeding the hooked ops back through ReplayOp
// onto a fresh pool reproduces the same data.
func TestReplayOpRebuildsState(t *testing.T) {
	cfg := hookCfg()
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &recHook{}
	pool.SetCommitHook(h)
	ctx := context.Background()
	addrs := []layout.Addr{0, 64, layout.PageSize, 3 * layout.PageSize}
	for i, a := range addrs {
		v := bytes.Repeat([]byte{byte(0x40 + i)}, layout.BlockSize)
		if err := pool.Write(ctx, a, v, core.Meta{VirtAddr: uint64(a), PID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()

	clone, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	h.mu.Lock()
	for sh, ops := range h.ops {
		for _, op := range ops {
			if _, err := clone.ReplayOp(sh, op); err != nil {
				t.Fatalf("ReplayOp(%d, %+v): %v", sh, op, err)
			}
		}
	}
	h.mu.Unlock()
	for i, a := range addrs {
		buf := make([]byte, layout.BlockSize)
		if err := clone.Read(ctx, a, buf, core.Meta{VirtAddr: uint64(a), PID: 1}); err != nil {
			t.Fatalf("read %#x: %v", a, err)
		}
		if buf[0] != byte(0x40+i) {
			t.Fatalf("replayed state wrong at %#x", a)
		}
	}
	if err := clone.Verify(ctx); err != nil {
		t.Fatalf("verify replayed pool: %v", err)
	}
}

// TestReplayOpRejectsBadInput: out-of-range shards and unknown kinds are
// errors, not panics.
func TestReplayOpRejectsBadInput(t *testing.T) {
	pool, err := New(hookCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.ReplayOp(99, MutOp{Kind: MutWrite}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := pool.ReplayOp(0, MutOp{Kind: MutKind(200)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
