package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"aisebmt/internal/attack"
	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// TestStateMachineExhaustive property-checks nextState over the full
// (state × event) cross product: every pair lands in a legal state, only
// the documented transitions fire, and the machine can never step into
// StateServing except through a completed repair (evRepairOK) — the
// structural guarantee that a latched shard never serves unverified data.
func TestStateMachineExhaustive(t *testing.T) {
	states := []ShardState{StateServing, StateQuarantined, StateRepairing, StateDown}
	events := []stateEvent{evFault, evRepairBegin, evRepairOK, evRepairFail, evBreakerTrip, evCordon, evUncordon}

	// The legal transition relation, stated independently of nextState's
	// implementation.
	legal := map[[2]int32]ShardState{
		{int32(StateServing), int32(evFault)}:           StateQuarantined,
		{int32(StateServing), int32(evCordon)}:          StateDown,
		{int32(StateQuarantined), int32(evCordon)}:      StateDown,
		{int32(StateQuarantined), int32(evRepairBegin)}: StateRepairing,
		{int32(StateRepairing), int32(evRepairOK)}:      StateServing,
		{int32(StateRepairing), int32(evRepairFail)}:    StateQuarantined,
		{int32(StateRepairing), int32(evBreakerTrip)}:   StateDown,
		{int32(StateDown), int32(evUncordon)}:           StateQuarantined,
	}

	for _, s := range states {
		for _, ev := range events {
			next, applied := nextState(s, ev)
			want, ok := legal[[2]int32{int32(s), int32(ev)}]
			if ok {
				if !applied || next != want {
					t.Errorf("nextState(%v, %v) = (%v, %v), want (%v, true)", s, ev, next, applied, want)
				}
			} else if applied || next != s {
				t.Errorf("nextState(%v, %v) = (%v, %v), want inapplicable (state unchanged)", s, ev, next, applied)
			}
			// Core safety property: the only road back to serving is a
			// completed, verified repair.
			if next == StateServing && s != StateServing && ev != evRepairOK {
				t.Errorf("nextState(%v, %v) reached StateServing without a repair", s, ev)
			}
			// A fault can never be absorbed while serving.
			if s == StateServing && ev == evFault && next == StateServing {
				t.Errorf("fault while serving did not latch")
			}
		}
	}
}

// TestFaultKindByStateRuntime drives a real pool's latch through every
// (fault kind × shard state) pair and asserts each lands in the legal
// next state. Faults are injected through the same entry points the
// runtime uses: quarantine() for integrity and durability faults, Cordon
// for operator faults.
func TestFaultKindByStateRuntime(t *testing.T) {
	kinds := []FaultKind{FaultIntegrity, FaultDurability, FaultOperator}
	states := []ShardState{StateServing, StateQuarantined, StateRepairing, StateDown}

	for _, st := range states {
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s_in_%s", k, st), func(t *testing.T) {
				p := newTestPool(t, Config{Shards: 2})
				defer p.Close()
				sh := p.shards[0]
				// Drive shard 0 into the starting state through the machine
				// itself (no direct stores — the path must be legal too).
				switch st {
				case StateQuarantined:
					p.quarantine(0, sh, FaultIntegrity, errors.New("seed fault"))
				case StateRepairing:
					p.quarantine(0, sh, FaultIntegrity, errors.New("seed fault"))
					if !p.BeginRepair(0) {
						t.Fatal("BeginRepair refused")
					}
				case StateDown:
					if err := p.Cordon(0); err != nil {
						t.Fatalf("Cordon: %v", err)
					}
				}
				if got := sh.fault.load(); got != st {
					t.Fatalf("setup state = %v, want %v", got, st)
				}

				// Inject the fault kind.
				switch k {
				case FaultIntegrity, FaultDurability:
					p.quarantine(0, sh, k, errors.New("injected"))
				case FaultOperator:
					p.Cordon(0) // error is legal from some states; state checked below
				}

				got := sh.fault.load()
				var want ShardState
				switch {
				case k == FaultOperator && (st == StateServing || st == StateQuarantined):
					want = StateDown
				case k == FaultOperator:
					want = st // cordon refused from repairing/down(already)
				case st == StateServing:
					want = StateQuarantined
				default:
					want = st // faults on a latched shard are absorbed
				}
				if got != want {
					t.Fatalf("after %v in %v: state = %v, want %v", k, st, got, want)
				}

				// Whatever happened, shard 1 must still serve and a latched
				// shard 0 must refuse with the typed error.
				ctx := context.Background()
				buf := make([]byte, 8)
				if err := p.Read(ctx, layout.PageSize, buf, core.Meta{}); err != nil {
					t.Fatalf("healthy shard unavailable: %v", err)
				}
				err := p.Read(ctx, 0, buf, core.Meta{})
				if got != StateServing && !errors.Is(err, ErrShardQuarantined) {
					t.Fatalf("latched shard read error = %v, want ErrShardQuarantined", err)
				}
				if got == StateServing && err != nil {
					t.Fatalf("serving shard read error = %v", err)
				}
			})
		}
	}
}

// TestIntegrityFaultQuarantinesOneShard flips a ciphertext bit in shard
// 0's untrusted memory and checks the full containment story: the read
// detects the tamper, the shard latches, subsequent requests are refused
// with ErrShardQuarantined, every other shard keeps serving, Checkpoint
// refuses while degraded, and in-place re-verification heals the shard
// only after the damage is undone.
func TestIntegrityFaultQuarantinesOneShard(t *testing.T) {
	p := newTestPool(t, Config{Shards: 4})
	defer p.Close()
	ctx := context.Background()

	msg := bytes.Repeat([]byte("fault-domain!"), 5)
	for s := 0; s < 4; s++ {
		if err := p.Write(ctx, layout.Addr(s)*layout.PageSize, msg, core.Meta{}); err != nil {
			t.Fatalf("Write shard %d: %v", s, err)
		}
	}

	// Tamper shard 0's ciphertext (pool page 0 = shard 0 local page 0;
	// data region base is 0) and remember the clean block for later.
	m := p.UntrustedMemory(0)
	clean := m.Snapshot(0)
	attack.New(m).Spoof(0, 3)

	buf := make([]byte, len(msg))
	if err := p.Read(ctx, 0, buf, core.Meta{}); !errors.Is(err, core.ErrTampered) {
		t.Fatalf("tampered read error = %v, want core.ErrTampered", err)
	}
	if st := p.ShardStates(); st[0] != StateQuarantined {
		t.Fatalf("shard 0 state = %v, want quarantined", st[0])
	}
	kind, cause := p.ShardFault(0)
	if kind != FaultIntegrity || cause == nil {
		t.Fatalf("shard 0 fault = (%v, %v), want (integrity, non-nil)", kind, cause)
	}

	// The latched shard refuses everything with the typed error...
	err := p.Read(ctx, 0, buf, core.Meta{})
	if !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("quarantined read error = %v, want ErrShardQuarantined", err)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Shard != 0 || qe.Kind != FaultIntegrity {
		t.Fatalf("quarantined error detail = %+v", qe)
	}
	if err := p.Write(ctx, 0, msg, core.Meta{}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("quarantined write error = %v, want ErrShardQuarantined", err)
	}

	// ...while every other shard keeps serving reads and writes.
	for s := 1; s < 4; s++ {
		a := layout.Addr(s) * layout.PageSize
		if err := p.Read(ctx, a, buf, core.Meta{}); err != nil {
			t.Fatalf("healthy shard %d read: %v", s, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("healthy shard %d data mismatch", s)
		}
		if err := p.Write(ctx, a, msg, core.Meta{}); err != nil {
			t.Fatalf("healthy shard %d write: %v", s, err)
		}
	}

	// A checkpoint now would bake the tampered page into a new epoch.
	if _, err := p.Checkpoint(io.Discard, nil); !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("degraded Checkpoint error = %v, want ErrPoolDegraded", err)
	}

	// Repair with the damage still in place must fail and re-latch.
	if err := p.ReverifyShard(0); !errors.Is(err, core.ErrTampered) {
		t.Fatalf("reverify with damage error = %v, want core.ErrTampered", err)
	}
	if st := p.ShardStates(); st[0] != StateQuarantined {
		t.Fatalf("after failed repair state = %v, want quarantined", st[0])
	}

	// Undo the damage; re-verification now heals the shard online.
	m.Tamper(0, clean)
	if err := p.ReverifyShard(0); err != nil {
		t.Fatalf("reverify after restore: %v", err)
	}
	if st := p.ShardStates(); st[0] != StateServing {
		t.Fatalf("healed state = %v, want serving", st[0])
	}
	if err := p.Read(ctx, 0, buf, core.Meta{}); err != nil || !bytes.Equal(buf, msg) {
		t.Fatalf("healed read = %v (match=%v)", err, bytes.Equal(buf, msg))
	}
	if _, err := p.Checkpoint(io.Discard, nil); err != nil {
		t.Fatalf("Checkpoint after heal: %v", err)
	}

	st := p.Stats()
	if st.Faults == 0 || st.Repairs == 0 || st.RepairFailures == 0 || st.QuarantineRefused == 0 {
		t.Fatalf("fault counters not recorded: %+v", st)
	}
}

// durabilityFaultHook fails commits on one shard with an
// ErrDurabilityFault-marked error; other shards commit fine.
type durabilityFaultHook struct{ shard int }

func (h *durabilityFaultHook) Commit(shard int, ops []MutOp) error {
	if shard == h.shard {
		return fmt.Errorf("%w: simulated unsafe rewind", ErrDurabilityFault)
	}
	return nil
}

// TestDurabilityFaultQuarantinesShard checks the hook-side latch: a
// commit error marked ErrDurabilityFault quarantines only its shard,
// while plain hook errors (covered by commit_test) just fail the batch.
func TestDurabilityFaultQuarantinesShard(t *testing.T) {
	p := newTestPool(t, Config{Shards: 2})
	defer p.Close()
	p.SetCommitHook(&durabilityFaultHook{shard: 0})
	ctx := context.Background()

	err := p.Write(ctx, 0, []byte("doomed"), core.Meta{})
	if !errors.Is(err, ErrDurabilityFault) {
		t.Fatalf("write error = %v, want ErrDurabilityFault", err)
	}
	if st := p.ShardStates(); st[0] != StateQuarantined || st[1] != StateServing {
		t.Fatalf("states = %v, want [quarantined serving]", st)
	}
	kind, _ := p.ShardFault(0)
	if kind != FaultDurability {
		t.Fatalf("fault kind = %v, want durability", kind)
	}
	if err := p.Write(ctx, layout.PageSize, []byte("fine"), core.Meta{}); err != nil {
		t.Fatalf("healthy shard write: %v", err)
	}
	// The repair path for a durability fault goes through the durability
	// layer; here memory is intact, so in-place re-verification heals it.
	if err := p.ReverifyShard(0); err != nil {
		t.Fatalf("reverify: %v", err)
	}
	p.SetCommitHook(nil)
	if err := p.Write(ctx, 0, []byte("healed"), core.Meta{}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

// TestCordonUncordon checks the operator path: cordon takes the shard
// down immediately, uncordon routes it back through quarantine and (with
// no durability layer attached) an in-place re-verification.
func TestCordonUncordon(t *testing.T) {
	p := newTestPool(t, Config{Shards: 2})
	defer p.Close()
	ctx := context.Background()

	if err := p.Write(ctx, 0, []byte("before cordon"), core.Meta{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := p.Cordon(0); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	if st := p.ShardStates(); st[0] != StateDown {
		t.Fatalf("state = %v, want down", st[0])
	}
	buf := make([]byte, 13)
	if err := p.Read(ctx, 0, buf, core.Meta{}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("cordoned read error = %v, want ErrShardQuarantined", err)
	}
	// Down shards reject repair claims — the breaker means *stay* down.
	if p.BeginRepair(0) {
		t.Fatal("BeginRepair succeeded on a down shard")
	}
	if err := p.Uncordon(0); err != nil {
		t.Fatalf("Uncordon: %v", err)
	}
	if st := p.ShardStates(); st[0] != StateServing {
		t.Fatalf("state after uncordon = %v, want serving", st[0])
	}
	if err := p.Read(ctx, 0, buf, core.Meta{}); err != nil || string(buf) != "before cordon" {
		t.Fatalf("read after uncordon = %v (%q)", err, buf)
	}
}

// TestAdoptShardSwapsController checks the full external-repair path:
// BeginRepair claims the shard, a replacement controller is built off to
// the side, and AdoptShard atomically swaps it in and resumes service.
func TestAdoptShardSwapsController(t *testing.T) {
	p := newTestPool(t, Config{Shards: 2})
	defer p.Close()
	ctx := context.Background()

	if err := p.Write(ctx, 0, []byte("original"), core.Meta{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	p.quarantine(0, p.shards[0], FaultIntegrity, errors.New("injected"))

	// AdoptShard without a claim must refuse.
	if err := p.AdoptShard(0, nil); err == nil {
		t.Fatal("AdoptShard succeeded without BeginRepair")
	}
	if !p.BeginRepair(0) {
		t.Fatal("BeginRepair refused")
	}
	// Double-claim must fail: exactly one repairer owns a shard.
	if p.BeginRepair(0) {
		t.Fatal("second BeginRepair succeeded")
	}

	// A failed attempt releases the claim and backs off to quarantined.
	p.FailRepair(0, false)
	if st := p.ShardStates(); st[0] != StateQuarantined {
		t.Fatalf("state after FailRepair = %v, want quarantined", st[0])
	}
	if !p.BeginRepair(0) {
		t.Fatal("BeginRepair after FailRepair refused")
	}

	// Build a replacement controller (fresh, then replay the write) and
	// verify it before adoption, as a real repairer would.
	_, ccfg, err := p.Config().resolve()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := core.New(ccfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := ApplyOpImage(sm, MutOp{Kind: MutWrite, Addr: 0, Data: []byte("original")}); err != nil {
		t.Fatalf("ApplyOpImage: %v", err)
	}
	if err := sm.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if err := p.AdoptShard(0, sm); err != nil {
		t.Fatalf("AdoptShard: %v", err)
	}
	buf := make([]byte, 8)
	if err := p.Read(ctx, 0, buf, core.Meta{}); err != nil || string(buf) != "original" {
		t.Fatalf("read after adopt = %v (%q)", err, buf)
	}

	// The breaker path: quarantine again, claim, trip — shard stays down
	// and rejects further claims until an operator uncordons it.
	p.quarantine(0, p.shards[0], FaultIntegrity, errors.New("again"))
	if !p.BeginRepair(0) {
		t.Fatal("BeginRepair refused after adopt")
	}
	p.FailRepair(0, true)
	if st := p.ShardStates(); st[0] != StateDown {
		t.Fatalf("state after breaker trip = %v, want down", st[0])
	}
	if p.BeginRepair(0) {
		t.Fatal("BeginRepair succeeded after breaker trip")
	}
}
