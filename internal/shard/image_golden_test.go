package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// TestGoldenPoolImage pins the exact bytes of the pool hibernation stream
// (the checkpoint image format) after a deterministic history on a
// 4-shard AISE+BMT pool: page and unaligned cross-page writes, a
// minor-counter overflow, a swap-out into a shard's Page Root Directory,
// and pages never touched. The hash was captured from the block-map
// memory model; checkpoints written by earlier builds must keep
// recovering, so the stream may not change.
func TestGoldenPoolImage(t *testing.T) {
	cfg := Config{Shards: 4, Core: core.Config{
		DataBytes: 4 * 4 * layout.PageSize, Key: testKey,
		Encryption: core.AISE, Integrity: core.BonsaiMT, MACBits: 128, SwapSlots: 8,
	}}
	p := newTestPool(t, cfg)
	ctx := context.Background()
	page := make([]byte, layout.PageSize)
	for i := range page {
		page[i] = byte(i*13 + 5)
	}
	for _, w := range []struct {
		a layout.Addr
		n int
	}{
		{0, layout.PageSize},
		{3*layout.PageSize - 70, 200},
		{9*layout.PageSize + 0x80, 64},
		{10 * layout.PageSize, 1000},
	} {
		if err := p.Write(ctx, w.a, page[:w.n], core.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	hot := make([]byte, layout.BlockSize)
	for i := 0; i <= layout.MinorCounterMax; i++ {
		hot[1] = byte(i)
		if err := p.Write(ctx, 5*layout.PageSize+0xc0, hot, core.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	var reenc uint64
	for _, cs := range p.CoreStats() {
		reenc += cs.PageReencrypts
	}
	if reenc == 0 {
		t.Fatal("history did not overflow a minor counter")
	}
	if _, err := p.SwapOut(ctx, 2*layout.PageSize, 1); err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	chips, err := p.Hibernate(&img)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	const want = "69306e7b3c79278e837d498655cb2674266fb3972c5de9aa26965033791e2677"
	sum := sha256.Sum256(img.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("pool hibernation stream sha256 = %s, want %s (IMAGE FORMAT CHANGED)", got, want)
	}

	r, err := Resume(cfg, chips, bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(ctx); err != nil {
		t.Fatalf("Verify after resume: %v", err)
	}
	got := make([]byte, layout.BlockSize)
	if err := r.Read(ctx, 5*layout.PageSize+0xc0, got, core.Meta{}); err != nil || !bytes.Equal(got, hot) {
		t.Errorf("overflowed block after resume: err %v, match %v", err, bytes.Equal(got, hot))
	}
}
