package shard

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// testKey is the 16-byte processor key used across the tests.
var testKey = []byte("0123456789abcdef")

// newTestPool builds a small AISE+BMT pool: 4 shards × 4 pages.
func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Core.DataBytes == 0 {
		cfg.Core.DataBytes = uint64(cfg.Shards) * 4 * layout.PageSize
	}
	if cfg.Core.Key == nil {
		cfg.Core.Key = testKey
	}
	if cfg.Core.Encryption == core.NoEncryption && cfg.Core.Integrity == core.NoIntegrity {
		cfg.Core.Encryption = core.AISE
		cfg.Core.Integrity = core.BonsaiMT
		cfg.Core.SwapSlots = 8
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestPoolReadYourWrites(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx := context.Background()

	msg := []byte("the quick brown fox jumps over the lazy dog")
	for _, a := range []layout.Addr{0, 4096, 8192, 12288, 65536 - 64} {
		if err := p.Write(ctx, a, msg, core.Meta{}); err != nil {
			t.Fatalf("Write(%#x): %v", a, err)
		}
		got := make([]byte, len(msg))
		if err := p.Read(ctx, a, got, core.Meta{}); err != nil {
			t.Fatalf("Read(%#x): %v", a, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("Read(%#x) = %q, want %q", a, got, msg)
		}
	}
}

// TestPoolCrossPageSpan writes a span that crosses page (and therefore
// shard) boundaries and reads it back through the page-splitting path.
func TestPoolCrossPageSpan(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx := context.Background()

	span := make([]byte, 3*layout.PageSize)
	for i := range span {
		span[i] = byte(i * 31)
	}
	a := layout.Addr(layout.PageSize - 128) // straddles 4 pages on 4 shards
	if err := p.Write(ctx, a, span, core.Meta{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(span))
	if err := p.Read(ctx, a, got, core.Meta{}); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("cross-page span did not round-trip")
	}
}

// TestPoolLocateCoversAllShards checks the page-interleaved hash touches
// every shard and is a bijection onto shard-local pages.
func TestPoolLocateCoversAllShards(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()

	seen := make(map[int]map[layout.Addr]bool)
	pages := int(p.DataBytes() / layout.PageSize)
	for i := 0; i < pages; i++ {
		si, local := p.locate(layout.Addr(i) * layout.PageSize)
		if si < 0 || si >= len(p.shards) {
			t.Fatalf("page %d: shard %d out of range", i, si)
		}
		if uint64(local) >= p.perShardBytes {
			t.Fatalf("page %d: local %#x outside shard (size %#x)", i, local, p.perShardBytes)
		}
		if seen[si] == nil {
			seen[si] = make(map[layout.Addr]bool)
		}
		if seen[si][local] {
			t.Fatalf("page %d: shard %d local %#x already used", i, si, local)
		}
		seen[si][local] = true
	}
	if len(seen) != len(p.shards) {
		t.Fatalf("only %d of %d shards used", len(seen), len(p.shards))
	}
}

func TestPoolRangeChecks(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx := context.Background()

	end := layout.Addr(p.DataBytes())
	if err := p.Read(ctx, end, make([]byte, 1), core.Meta{}); err == nil {
		t.Fatal("read past the end succeeded")
	}
	if err := p.Write(ctx, end-32, make([]byte, 64), core.Meta{}); err == nil {
		t.Fatal("write crossing the end succeeded")
	}
	if err := p.Read(ctx, end-64, make([]byte, 64), core.Meta{}); err != nil {
		t.Fatalf("read of the final block failed: %v", err)
	}
}

func TestPoolSwapRoundTrip(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx := context.Background()

	page := layout.Addr(5 * layout.PageSize)
	secret := []byte("swap me out and back in")
	if err := p.Write(ctx, page+100, secret, core.Meta{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	img, err := p.SwapOut(ctx, page, 3)
	if err != nil {
		t.Fatalf("SwapOut: %v", err)
	}
	// The vacated frame reads as zeros.
	got := make([]byte, len(secret))
	if err := p.Read(ctx, page+100, got, core.Meta{}); err != nil {
		t.Fatalf("Read of vacated frame: %v", err)
	}
	if !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatal("vacated frame is not zeroed")
	}
	// Swap back in to a different frame of the same shard (page number
	// congruent mod Shards).
	newPage := page + layout.Addr(len(p.shards))*layout.PageSize
	if err := p.SwapIn(ctx, img, newPage, 3); err != nil {
		t.Fatalf("SwapIn: %v", err)
	}
	if err := p.Read(ctx, newPage+100, got, core.Meta{}); err != nil {
		t.Fatalf("Read after SwapIn: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("after swap round-trip got %q, want %q", got, secret)
	}
	// A counter-tampered image is rejected at SwapIn (the page root check).
	img2, err := p.SwapOut(ctx, newPage, 4)
	if err != nil {
		t.Fatalf("SwapOut #2: %v", err)
	}
	ctrTampered := img2.Clone()
	ctrTampered.Counters[7] ^= 0x80
	if err := p.SwapIn(ctx, ctrTampered, page, 4); !errors.Is(err, core.ErrTampered) {
		t.Fatalf("counter-tampered swap image: err = %v, want ErrTampered", err)
	}
	// A data-tampered image installs (per-block checks are lazy, §5.1) but
	// the tampered block fails verification on first read.
	dataTampered := img2.Clone()
	dataTampered.Data[3][7] ^= 0x80
	if err := p.SwapIn(ctx, dataTampered, page, 4); err != nil {
		t.Fatalf("SwapIn of data-tampered image: %v (data tampering is caught lazily)", err)
	}
	if err := p.Read(ctx, page+3*layout.BlockSize, make([]byte, layout.BlockSize), core.Meta{}); !errors.Is(err, core.ErrTampered) {
		t.Fatalf("read of tampered swapped-in block: err = %v, want ErrTampered", err)
	}
}

func TestPoolVerifyAndRoots(t *testing.T) {
	p := newTestPool(t, Config{})
	ctx := context.Background()

	for i := 0; i < 32; i++ {
		a := layout.Addr(i) * 2048
		if err := p.Write(ctx, a, []byte{byte(i)}, core.Meta{}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := p.Verify(ctx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	roots := p.Roots()
	if len(roots) != len(p.shards) {
		t.Fatalf("got %d roots, want %d", len(roots), len(p.shards))
	}
	for i, r := range roots {
		if len(r) == 0 {
			t.Fatalf("shard %d has no tree root", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Write(ctx, 0, []byte{1}, core.Meta{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestPoolWriteCoalescing floods one shard with duplicate block writes and
// checks (a) the final value wins, (b) some writes were coalesced away,
// (c) the controller saw fewer block writes than were issued.
func TestPoolWriteCoalescing(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 128, BatchMax: 64})
	defer p.Close()
	ctx := context.Background()

	const n = 400
	results := make(chan error, n)
	block := make([]byte, layout.BlockSize)
	// Concurrent submitters let the queue fill so batches form.
	for i := 0; i < n; i++ {
		go func(i int) {
			b := append([]byte(nil), block...)
			b[0] = byte(i)
			results <- p.Write(ctx, 64, b, core.Meta{})
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	st := p.Stats()
	if st.CoalescedWrites == 0 {
		t.Log("no writes were coalesced (timing-dependent); batching stats:", st.Batches, st.BatchedOps)
	}
	if st.Core.BlockWrites+st.CoalescedWrites < n {
		t.Fatalf("writes unaccounted for: %d executed + %d coalesced < %d issued",
			st.Core.BlockWrites, st.CoalescedWrites, n)
	}
	got := make([]byte, layout.BlockSize)
	if err := p.Read(ctx, 64, got, core.Meta{}); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if err := p.Verify(ctx); err != nil {
		t.Fatalf("Verify after coalescing: %v", err)
	}
}

func TestPoolContextCancelled(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Write(ctx, 0, []byte{1}, core.Meta{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPoolStatsAggregation(t *testing.T) {
	p := newTestPool(t, Config{})
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 16; i++ {
		if err := p.Write(ctx, layout.Addr(i)*layout.PageSize, []byte{byte(i)}, core.Meta{}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	st := p.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats cover %d/%d shards, want 4", st.Shards, len(st.PerShard))
	}
	var sum core.Stats
	for _, cs := range st.PerShard {
		sum = sum.Add(cs)
	}
	if sum != st.Core {
		t.Fatalf("aggregate %+v != sum of per-shard %+v", st.Core, sum)
	}
	if st.Core.BlockWrites == 0 || st.Enqueued == 0 || st.Batches == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
}

func TestPoolHibernateResume(t *testing.T) {
	cfg := Config{Shards: 2, Core: core.Config{
		DataBytes: 2 * 4 * layout.PageSize, Key: testKey,
		Encryption: core.AISE, Integrity: core.BonsaiMT, SwapSlots: 4,
	}}
	p := newTestPool(t, cfg)
	ctx := context.Background()
	secret := []byte("survives the power cycle")
	if err := p.Write(ctx, 3*layout.PageSize+17, secret, core.Meta{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var img bytes.Buffer
	chips, err := p.Hibernate(&img)
	if err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, err := Resume(cfg, chips, bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer p2.Close()
	got := make([]byte, len(secret))
	if err := p2.Read(ctx, 3*layout.PageSize+17, got, core.Meta{}); err != nil {
		t.Fatalf("Read after resume: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("after resume got %q, want %q", got, secret)
	}

	// Offline tampering: flip a data bit in the image; the resumed pool
	// must detect it (the tampered block fails its MAC/tree check).
	raw := append([]byte(nil), img.Bytes()...)
	raw[len(raw)/2] ^= 0x40
	p3, err := Resume(cfg, chips, bytes.NewReader(raw))
	if err != nil {
		return // corrupted framing is also a valid detection point
	}
	defer p3.Close()
	if err := p3.Verify(ctx); err == nil {
		t.Fatal("offline tampering with the hibernation image went undetected")
	}
}

func TestPoolConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 3, Core: core.Config{DataBytes: 4 * layout.PageSize, Key: testKey, Encryption: core.AISE, Integrity: core.BonsaiMT}},
		{Shards: 2, Core: core.Config{DataBytes: layout.PageSize, Key: testKey, Encryption: core.AISE, Integrity: core.BonsaiMT}},
		{Shards: -1, Core: core.Config{DataBytes: 4 * layout.PageSize, Key: testKey}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCloseSweepsEveryShard: the final sweep runs on all shards at once and
// still reports the lowest-numbered shard that fails it.
func TestCloseSweepsEveryShard(t *testing.T) {
	p := newTestPool(t, Config{Shards: 4})
	ctx := context.Background()
	msg := bytes.Repeat([]byte{0x5a}, layout.PageSize)
	for s := 0; s < 4; s++ {
		if err := p.Write(ctx, layout.Addr(s)*layout.PageSize, msg, core.Meta{}); err != nil {
			t.Fatalf("Write shard %d: %v", s, err)
		}
	}
	// Pool page s is shard s's local page 0: flip a ciphertext bit on
	// shards 3 and 1, in that order.
	for _, s := range []int{3, 1} {
		p.UntrustedMemory(s).TamperBytes(0x40, []byte{0xff})
	}
	err := p.Close()
	if !errors.Is(err, core.ErrTampered) {
		t.Fatalf("Close = %v, want core.ErrTampered", err)
	}
	if !strings.HasPrefix(err.Error(), "shard 1:") {
		t.Fatalf("Close = %v, want the lowest-numbered failing shard (1) named", err)
	}
}
