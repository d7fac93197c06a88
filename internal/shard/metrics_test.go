package shard

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
)

// TestPoolMetricsAndTraces drives a pool with observability wired and
// holds the instruments to what actually happened: every traced request
// lands a span in its shard's ring with the right op, the hot-path
// histograms move, the fault state machine's transitions surface as
// labelled counters, and the combined exposition (registry + scrape-time
// pool section) passes the metric lint.
func TestPoolMetricsAndTraces(t *testing.T) {
	svc := obs.NewService(4, 256)
	p := newTestPool(t, Config{Shards: 4, Obs: svc})
	defer p.Close()
	ctx := context.Background()

	msg := bytes.Repeat([]byte("observable!"), 4)
	const base = uint64(0xabcdef01)
	for s := 0; s < 4; s++ {
		a := layout.Addr(s) * layout.PageSize
		if err := p.Write(ctx, a, msg, core.Meta{VirtAddr: uint64(a), Trace: base + uint64(s)}); err != nil {
			t.Fatalf("Write shard %d: %v", s, err)
		}
		got := make([]byte, len(msg))
		if err := p.Read(ctx, a, got, core.Meta{VirtAddr: uint64(a), Trace: base + 100 + uint64(s)}); err != nil {
			t.Fatalf("Read shard %d: %v", s, err)
		}
	}

	recs := svc.SnapshotTraces(nil)
	if len(recs) != 8 {
		t.Fatalf("trace records = %d, want 8 (one per traced request)", len(recs))
	}
	byID := map[uint64]obs.Record{}
	for _, r := range recs {
		byID[r.TraceID] = r
	}
	for s := 0; s < 4; s++ {
		w, ok := byID[base+uint64(s)]
		if !ok || TraceOpName(w.Op) != "write" || w.Shard != uint32(s) {
			t.Fatalf("write span shard %d: got %+v (found %v)", s, w, ok)
		}
		r, ok := byID[base+100+uint64(s)]
		if !ok || TraceOpName(r.Op) != "read" || r.Shard != uint32(s) {
			t.Fatalf("read span shard %d: got %+v (found %v)", s, r, ok)
		}
		for _, rec := range []obs.Record{w, r} {
			if rec.Status != 0 || TraceStatusName(rec.Status) != "ok" {
				t.Errorf("span %#x status = %d, want ok", rec.TraceID, rec.Status)
			}
			if rec.ExecNs <= 0 || rec.QueueNs < 0 || rec.StartNs <= 0 {
				t.Errorf("span %#x timeline exec=%d queue=%d start=%d", rec.TraceID, rec.ExecNs, rec.QueueNs, rec.StartNs)
			}
			// No persist layer on this pool: commit stages must stay zero.
			if rec.AppendNs != 0 || rec.FsyncNs != 0 {
				t.Errorf("span %#x has commit stages without a store: append=%d fsync=%d", rec.TraceID, rec.AppendNs, rec.FsyncNs)
			}
		}
	}

	// Walk shard 0 through the operator fault path. With no durability
	// hook, Uncordon re-verifies in place, so this one pair covers
	// down → quarantined → repairing → serving.
	if err := p.Cordon(0); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	if err := p.Uncordon(0); err != nil {
		t.Fatalf("Uncordon: %v", err)
	}

	var buf bytes.Buffer
	if err := svc.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	p.WriteMetrics(&buf)
	text := buf.String()
	if probs := obs.Lint(text, "secmemd_"); len(probs) > 0 {
		t.Fatalf("exposition lint:\n%s", strings.Join(probs, "\n"))
	}
	samples := obs.ParseSamples(text)
	for series, min := range map[string]float64{
		"secmemd_pool_enqueued_total":                          8,
		"secmemd_queue_wait_us_count":                          8,
		"secmemd_batch_ops_count":                              1,
		`secmemd_shard_transitions_total{state="down"}`:        1,
		`secmemd_shard_transitions_total{state="quarantined"}`: 1,
		`secmemd_shard_transitions_total{state="repairing"}`:   1,
		`secmemd_shard_transitions_total{state="serving"}`:     1,
		"secmemd_pool_faults_total":                            1,
		"secmemd_pool_repairs_total":                           1,
		`secmemd_shard_state{shard="0",state="serving"}`:       1,
		`secmemd_core_mac_ops_total{shard="1"}`:                1,
		`secmemd_core_tree_verifies_total{shard="2"}`:          1,
	} {
		if got := samples[series]; got < min {
			t.Errorf("%s = %v, want >= %v", series, got, min)
		}
	}
}

// TestTracedRequestAllocsNoWorse pins the end-to-end cost of tracing: a
// request carrying a trace ID through an observability-wired pool may
// not allocate more than the same request through a plain pool. The
// span capture itself (time reads, ring publish, histogram observes)
// must be allocation-free.
func TestTracedRequestAllocsNoWorse(t *testing.T) {
	plain := newTestPool(t, Config{Shards: 1})
	defer plain.Close()
	traced := newTestPool(t, Config{Shards: 1, Obs: obs.NewService(1, 256)})
	defer traced.Close()
	ctx := context.Background()
	msg := bytes.Repeat([]byte("alloc-probe"), 4)

	// Warm both pools (lazy page faults, swap metadata) before measuring.
	for _, p := range []*Pool{plain, traced} {
		if err := p.Write(ctx, 0, msg, core.Meta{}); err != nil {
			t.Fatalf("warm write: %v", err)
		}
	}

	next := uint64(1)
	plainAllocs := testing.AllocsPerRun(200, func() {
		if err := plain.Write(ctx, 0, msg, core.Meta{}); err != nil {
			t.Fatalf("plain write: %v", err)
		}
	})
	tracedAllocs := testing.AllocsPerRun(200, func() {
		next++
		if err := traced.Write(ctx, 0, msg, core.Meta{Trace: next}); err != nil {
			t.Fatalf("traced write: %v", err)
		}
	})
	// AllocsPerRun counts allocations from the shard worker goroutine
	// too, so allow sub-alloc jitter without letting a real per-op
	// allocation (>= 1.0) slip in.
	if tracedAllocs > plainAllocs+0.5 {
		t.Errorf("traced write allocs/op = %.2f, plain = %.2f: tracing added heap work", tracedAllocs, plainAllocs)
	}
}

// TestUntrustedBytesGauge: the scrape-time footprint gauge is the sum of
// the shards' allocated page frames and grows when a write first touches
// a page.
func TestUntrustedBytesGauge(t *testing.T) {
	svc := obs.NewService(4, 16)
	p := newTestPool(t, Config{Shards: 4, Obs: svc})
	defer p.Close()
	scrape := func() float64 {
		var buf bytes.Buffer
		if err := svc.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return obs.ParseSamples(buf.String())["secmemd_pool_untrusted_bytes"]
	}
	sum := func() float64 {
		var n uint64
		for i := 0; i < p.Shards(); i++ {
			n += p.UntrustedMemory(i).ResidentBytes()
		}
		return float64(n)
	}
	before := scrape()
	if before != sum() || before <= 0 {
		t.Fatalf("gauge = %v, shards hold %v bytes", before, sum())
	}
	if err := p.Write(context.Background(), 5*layout.PageSize, []byte("first touch"), core.Meta{}); err != nil {
		t.Fatal(err)
	}
	if after := scrape(); after != sum() || after <= before || int64(after)%layout.PageSize != 0 {
		t.Errorf("after a first-touch write: gauge %v (was %v), shards hold %v", after, before, sum())
	}
}
