package persist

import (
	"context"
	"errors"
	"sync"
	"testing"

	"aisebmt/internal/shard"
)

// segmentTap collects shipped segments through a wire roundtrip, so every
// test exercises the encode/decode path the cluster transport uses.
type segmentTap struct {
	mu   sync.Mutex
	segs []*Segment
	err  error // injected sink failure
}

func (tap *segmentTap) sink(s *Segment) error {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.err != nil {
		return tap.err
	}
	dec, err := DecodeSegment(testProcKey, EncodeSegment(testProcKey, s))
	if err != nil {
		return err
	}
	tap.segs = append(tap.segs, dec)
	return nil
}

func (tap *segmentTap) byShard(i uint32) []*Segment {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	var out []*Segment
	for _, s := range tap.segs {
		if s.Shard == i {
			out = append(out, s)
		}
	}
	return out
}

// applyAll replays segments into a standby pool via its cursors.
func applyAll(t *testing.T, pool *shard.Pool, cursors []*SegmentCursor, segs []*Segment) {
	t.Helper()
	for _, s := range segs {
		ops, err := cursors[s.Shard].Apply(s)
		if err != nil {
			t.Fatalf("apply segment (shard %d, seq %d..%d): %v", s.Shard, s.FromSeq, s.ToSeq, err)
		}
		for _, op := range ops {
			if _, err := pool.ReplayOp(int(s.Shard), op); err != nil {
				t.Fatalf("replay op on shard %d: %v", s.Shard, err)
			}
		}
	}
}

// TestSegmentStreamReplicates is the replication roundtrip: a standby
// built from a baseline plus the shipped segment stream converges to the
// owner's acknowledged state, and the result passes full verification.
func TestSegmentStreamReplicates(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(2)

	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	pre := writeN(t, pool, cfg, 0, 20)

	wire, err := st.ExportBaseline()
	if err != nil {
		t.Fatalf("ExportBaseline: %v", err)
	}
	base, err := DecodeBaseline(testProcKey, EncodeBaseline(testProcKey, wire))
	if err != nil {
		t.Fatalf("baseline wire roundtrip: %v", err)
	}

	st.SetFence(3)
	tap := &segmentTap{}
	st.SetSegmentSink(tap.sink)
	post := writeN(t, pool, cfg, 20, 20)
	st.SetSegmentSink(nil)

	standby, cursors, err := ImportBaseline(testProcKey, cfg, base)
	if err != nil {
		t.Fatalf("ImportBaseline: %v", err)
	}
	defer standby.Close()
	checkValues(t, standby, pre)

	if len(tap.segs) == 0 {
		t.Fatal("no segments shipped")
	}
	for _, s := range tap.segs {
		if s.Fence != 3 {
			t.Fatalf("segment fence = %d, want 3", s.Fence)
		}
	}
	applyAll(t, standby, cursors, tap.segs)
	if err := standby.Verify(context.Background()); err != nil {
		t.Fatalf("standby verify after segment replay: %v", err)
	}
	checkValues(t, standby, pre)
	checkValues(t, standby, post)

	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSegmentSinkFailureFailsBatch: a refused shipment (e.g. the follower
// fenced this node off) must fail the write and leave no trace in the
// local log — the next recovery must not see the refused records.
func TestSegmentSinkFailureFailsBatch(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(1)

	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	acked := writeN(t, pool, cfg, 0, 5)

	tap := &segmentTap{err: errors.New("fenced off")}
	st.SetSegmentSink(tap.sink)
	a := testAddr(99, cfg)
	if err := pool.Write(context.Background(), a, testVal(99), testMeta(a)); err == nil {
		t.Fatal("write acked despite sink refusal")
	}
	st.SetSegmentSink(nil)

	// The refused batch must be gone: later writes chain cleanly and
	// recovery replays only acknowledged state.
	acked2 := writeN(t, pool, cfg, 100, 5)
	cfs.crash()
	st2 := openStore(t, cfs, FsyncAlways)
	pool2, _, err := st2.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover after sink failure: %v", err)
	}
	defer st2.Close()
	defer pool2.Close()
	checkValues(t, pool2, acked)
	checkValues(t, pool2, acked2)
}

// TestSegmentForgeries drives the cursor's continuity checks with a table
// of forged and replayed streams: each must be rejected with its typed
// error, and a failed Apply must leave the cursor able to accept the
// legitimate continuation.
func TestSegmentForgeries(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(1)
	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tap := &segmentTap{}
	st.SetSegmentSink(tap.sink)
	writeN(t, pool, cfg, 0, 6)
	st.SetSegmentSink(nil)
	segs := tap.byShard(0)
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %d", len(segs))
	}
	s0, s1 := segs[0], segs[1]
	fresh := func() *SegmentCursor {
		return NewSegmentCursor(testProcKey, s0.Epoch, s0.Shard, s0.FromSeq, s0.FromChain)
	}
	mut := func(f func(c Segment) Segment) *Segment {
		c := f(*s0)
		return &c
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"replayed segment is rollback", func(t *testing.T) {
			c := fresh()
			if _, err := c.Apply(s0); err != nil {
				t.Fatalf("first apply: %v", err)
			}
			if _, err := c.Apply(s0); !errors.Is(err, ErrSegmentRollback) {
				t.Fatalf("replay: err = %v, want ErrSegmentRollback", err)
			}
			if _, err := c.Apply(s1); err != nil {
				t.Fatalf("cursor damaged by rejected replay: %v", err)
			}
		}},
		{"skipped segment is a gap", func(t *testing.T) {
			if _, err := fresh().Apply(s1); !errors.Is(err, ErrSegmentGap) {
				t.Fatalf("err = %v, want ErrSegmentGap", err)
			}
		}},
		{"cross-epoch splice", func(t *testing.T) {
			bad := mut(func(c Segment) Segment { c.Epoch++; return c })
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrSegmentEpoch) {
				t.Fatalf("err = %v, want ErrSegmentEpoch", err)
			}
		}},
		{"chain splice from another history", func(t *testing.T) {
			bad := mut(func(c Segment) Segment { c.FromChain[0] ^= 1; return c })
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
		{"tampered record payload", func(t *testing.T) {
			bad := mut(func(c Segment) Segment {
				c.Records = append([]byte(nil), c.Records...)
				c.Records[recFrameLen+2] ^= 1
				return c
			})
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
		{"truncated records", func(t *testing.T) {
			bad := mut(func(c Segment) Segment { c.Records = c.Records[:len(c.Records)-1]; return c })
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
		{"header lies about end position", func(t *testing.T) {
			bad := mut(func(c Segment) Segment { c.ToSeq++; return c })
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
		{"wire tamper caught by seal", func(t *testing.T) {
			b := EncodeSegment(testProcKey, s0)
			b[len(b)/2] ^= 1
			if _, err := DecodeSegment(testProcKey, b); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
		{"wrong shard", func(t *testing.T) {
			bad := mut(func(c Segment) Segment { c.Shard++; return c })
			if _, err := fresh().Apply(bad); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("err = %v, want ErrWALTampered", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
	st.Close()
	pool.Close()
}

// TestBaselineForgeries: a baseline is trusted state in transit; any
// tamper — in the sealed envelope or in the shard tails inside it — must
// fail closed on import.
func TestBaselineForgeries(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(2)
	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	writeN(t, pool, cfg, 0, 20)
	base, err := st.ExportBaseline()
	if err != nil {
		t.Fatalf("ExportBaseline: %v", err)
	}

	t.Run("envelope tamper", func(t *testing.T) {
		b := EncodeBaseline(testProcKey, base)
		b[len(b)/2] ^= 1
		if _, err := DecodeBaseline(testProcKey, b); !errors.Is(err, ErrTrustTampered) {
			t.Fatalf("err = %v, want ErrTrustTampered", err)
		}
	})
	t.Run("inflated position claim", func(t *testing.T) {
		bad := *base
		bad.Shards = append([]BaselineShard(nil), base.Shards...)
		bad.Shards[0].Seq += 3 // claims records the WAL bytes do not hold
		if _, _, err := ImportBaseline(testProcKey, cfg, &bad); !errors.Is(err, ErrWALTampered) {
			t.Fatalf("err = %v, want ErrWALTampered", err)
		}
	})
	t.Run("cross-shard WAL swap", func(t *testing.T) {
		bad := *base
		bad.Shards = append([]BaselineShard(nil), base.Shards...)
		bad.Shards[0], bad.Shards[1] = bad.Shards[1], bad.Shards[0]
		if _, _, err := ImportBaseline(testProcKey, cfg, &bad); !errors.Is(err, ErrWALTampered) {
			t.Fatalf("err = %v, want ErrWALTampered", err)
		}
	})
	st.Close()
	pool.Close()
}

// TestAdoptPromotedStandby is the failover tail: a standby built from
// baseline + segments is adopted into a fresh data directory under a
// raised fence, keeps serving and logging writes, and a later recovery
// from that directory sees everything — with the fence persisted.
func TestAdoptPromotedStandby(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(2)

	owner := openStore(t, cfs, FsyncAlways)
	pool, _, err := owner.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	pre := writeN(t, pool, cfg, 0, 10)
	base, err := owner.ExportBaseline()
	if err != nil {
		t.Fatalf("ExportBaseline: %v", err)
	}
	tap := &segmentTap{}
	owner.SetSegmentSink(tap.sink)
	shipped := writeN(t, pool, cfg, 10, 10)
	owner.Close() // owner "dies" (its pool stays open but is abandoned)

	standby, cursors, err := ImportBaseline(testProcKey, cfg, base)
	if err != nil {
		t.Fatalf("ImportBaseline: %v", err)
	}
	applyAll(t, standby, cursors, tap.segs)

	promoted, err := Open(Options{
		Dir: "promoted", Key: testProcKey, Fsync: FsyncAlways,
		FsyncInterval: 1e12, RepairPoll: -1, FS: cfs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("Open promoted: %v", err)
	}
	promoted.SetFence(base.Fence + 1)
	if err := promoted.Adopt(standby); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	after := writeN(t, standby, cfg, 20, 10)
	cfs.crash()

	st2, err := Open(Options{
		Dir: "promoted", Key: testProcKey, Fsync: FsyncAlways,
		FsyncInterval: 1e12, RepairPoll: -1, FS: cfs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("reopen promoted: %v", err)
	}
	pool2, _, err := st2.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover promoted: %v", err)
	}
	defer st2.Close()
	defer pool2.Close()
	if got := st2.Fence(); got != base.Fence+1 {
		t.Fatalf("recovered fence = %d, want %d", got, base.Fence+1)
	}
	checkValues(t, pool2, pre)
	checkValues(t, pool2, shipped)
	checkValues(t, pool2, after)
	pool.Close()
}
