package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aisebmt/internal/core"
	"aisebmt/internal/mem"
)

// Fault containment turns the pool into a set of independent fault
// domains. Shards are cryptographically independent (no shared counter
// blocks, MACs or tree leaves), so an integrity violation or an unsafe
// durability fault on one shard says nothing about the others: the
// affected shard latches into StateQuarantined and answers every request
// with a typed QuarantineError while the rest of the pool keeps serving.
// A durability layer can then repair the shard online — rebuild it from
// its last verified snapshot plus WAL replay, re-verify the counter-block
// subtree against the sealed root, and swap it back in through AdoptShard
// without stopping the listener.

// ShardState is one shard's position in the fault-containment state
// machine. The zero value is StateServing.
type ShardState int32

// Shard states.
const (
	// StateServing: healthy; the worker executes requests normally.
	StateServing ShardState = iota
	// StateQuarantined: a fault latched; every request is answered with a
	// QuarantineError and no data — verified or not — leaves the shard.
	StateQuarantined
	// StateRepairing: a repairer claimed the shard and is rebuilding it;
	// requests are still refused.
	StateRepairing
	// StateDown: the crash-loop breaker tripped (repeated repair failures)
	// or an operator cordoned the shard. Only Uncordon leaves this state.
	StateDown
)

func (s ShardState) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateQuarantined:
		return "quarantined"
	case StateRepairing:
		return "repairing"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("ShardState(%d)", int32(s))
	}
}

// FaultKind classifies the event that latched a shard.
type FaultKind int

// Fault kinds.
const (
	// FaultIntegrity: the controller detected tampering (bad data MAC,
	// counter verification failure, Bonsai root mismatch).
	FaultIntegrity FaultKind = iota + 1
	// FaultDurability: the commit hook reported an unsafe durability fault
	// (the log can no longer be trusted to match execution).
	FaultDurability
	// FaultOperator: an operator cordoned the shard.
	FaultOperator
)

func (k FaultKind) String() string {
	switch k {
	case FaultIntegrity:
		return "integrity"
	case FaultDurability:
		return "durability"
	case FaultOperator:
		return "operator"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// stateEvent is one input to the shard state machine.
type stateEvent int

const (
	evFault       stateEvent = iota + 1 // integrity or durability fault observed
	evRepairBegin                       // a repairer claimed the shard
	evRepairOK                          // repair finished and re-verification passed
	evRepairFail                        // repair failed; attempts remain
	evBreakerTrip                       // repair failed with the attempt budget spent
	evCordon                            // operator took the shard out of service
	evUncordon                          // operator asked for the shard back
)

func (e stateEvent) String() string {
	switch e {
	case evFault:
		return "fault"
	case evRepairBegin:
		return "repair-begin"
	case evRepairOK:
		return "repair-ok"
	case evRepairFail:
		return "repair-fail"
	case evBreakerTrip:
		return "breaker-trip"
	case evCordon:
		return "cordon"
	case evUncordon:
		return "uncordon"
	default:
		return fmt.Sprintf("stateEvent(%d)", int(e))
	}
}

// nextState is the single source of truth for legal transitions. It
// returns the successor state and whether the event applies in s; an
// inapplicable event leaves the state unchanged (faults on an
// already-latched shard are absorbed, repair verdicts only count while
// repairing, and StateDown only yields to evUncordon). The one transition
// into StateServing is evRepairOK, which every repair path fires only
// after a full re-verification passed — the machine cannot resume serving
// unverified data.
func nextState(s ShardState, ev stateEvent) (ShardState, bool) {
	switch {
	case s == StateServing && ev == evFault:
		return StateQuarantined, true
	case (s == StateServing || s == StateQuarantined) && ev == evCordon:
		return StateDown, true
	case s == StateQuarantined && ev == evRepairBegin:
		return StateRepairing, true
	case s == StateRepairing && ev == evRepairOK:
		return StateServing, true
	case s == StateRepairing && ev == evRepairFail:
		return StateQuarantined, true
	case s == StateRepairing && ev == evBreakerTrip:
		return StateDown, true
	case s == StateDown && ev == evUncordon:
		return StateQuarantined, true
	}
	return s, false
}

// ErrShardQuarantined matches (via errors.Is) every request refused
// because its shard is quarantined, repairing, or down.
var ErrShardQuarantined = errors.New("shard: shard is quarantined")

// ErrDurabilityFault marks a CommitHook error as an unsafe per-shard
// durability fault: the log can no longer be trusted to match execution,
// so the pool quarantines the shard. Hook errors without this mark fail
// the batch only (the refused batch was rewound out of the log and the
// shard stays healthy).
var ErrDurabilityFault = errors.New("shard: durability fault")

// ErrPoolDegraded is returned by Checkpoint while any shard is not
// serving: a snapshot cut then would bake unverified or unavailable state
// into the new epoch, so the previous epoch stays authoritative until the
// pool heals.
var ErrPoolDegraded = errors.New("shard: pool degraded")

// QuarantineError reports a request refused by a latched shard.
type QuarantineError struct {
	Shard int
	State ShardState
	Kind  FaultKind
	Cause error
}

func (e *QuarantineError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("shard %d is %s (%s fault: %v)", e.Shard, e.State, e.Kind, e.Cause)
	}
	return fmt.Sprintf("shard %d is %s", e.Shard, e.State)
}

// Is matches ErrShardQuarantined.
func (e *QuarantineError) Is(target error) bool { return target == ErrShardQuarantined }

// Fault is one fault notification delivered through Pool.Faults.
type Fault struct {
	Shard int
	Kind  FaultKind
	Err   error
}

// faultState is a shard's latch: its state machine position plus the
// fault that put it there.
type faultState struct {
	state atomic.Int32

	mu    sync.Mutex
	kind  FaultKind
	cause error
}

// load returns the current state.
func (f *faultState) load() ShardState { return ShardState(f.state.Load()) }

// fire drives the state machine with ev, returning the state it settled
// in and whether the event applied.
func (f *faultState) fire(ev stateEvent) (ShardState, bool) {
	for {
		cur := ShardState(f.state.Load())
		next, ok := nextState(cur, ev)
		if !ok {
			return cur, false
		}
		if f.state.CompareAndSwap(int32(cur), int32(next)) {
			return next, true
		}
	}
}

// setFault records why the shard latched.
func (f *faultState) setFault(kind FaultKind, cause error) {
	f.mu.Lock()
	f.kind, f.cause = kind, cause
	f.mu.Unlock()
}

// fault returns the recorded latch reason.
func (f *faultState) fault() (FaultKind, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kind, f.cause
}

// clearFault resets the latch reason after a successful repair.
func (f *faultState) clearFault() {
	f.mu.Lock()
	f.kind, f.cause = 0, nil
	f.mu.Unlock()
}

// quarErr builds the QuarantineError requests on this shard receive.
func (sh *shard) quarErr(idx int) error {
	kind, cause := sh.fault.fault()
	return &QuarantineError{Shard: idx, State: sh.fault.load(), Kind: kind, Cause: cause}
}

// quarantine latches a shard out of service. Only the first fault wins;
// later faults on an already-latched shard are absorbed.
func (p *Pool) quarantine(idx int, sh *shard, kind FaultKind, cause error) {
	st, ok := sh.fault.fire(evFault)
	if !ok {
		return
	}
	sh.fault.setFault(kind, cause)
	p.svc.faults.Add(1)
	p.met.transition(st)
	p.notifyFault(Fault{Shard: idx, Kind: kind, Err: cause})
}

// notifyFault delivers a fault to the Faults channel without blocking
// (repairers also poll ShardStates, so a dropped notification only delays
// a repair by one poll interval).
func (p *Pool) notifyFault(f Fault) {
	select {
	case p.faults <- f:
	default:
	}
}

// Faults returns the pool's fault notification channel. A durability
// layer's repair worker selects on it to react to quarantines promptly;
// notifications are best-effort (poll ShardStates for the ground truth).
func (p *Pool) Faults() <-chan Fault { return p.faults }

// ShardStates snapshots every shard's state.
func (p *Pool) ShardStates() []ShardState {
	out := make([]ShardState, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.fault.load()
	}
	return out
}

// ShardFault returns shard i's latch reason (zero values while serving).
func (p *Pool) ShardFault(i int) (FaultKind, error) {
	if i < 0 || i >= len(p.shards) {
		return 0, nil
	}
	return p.shards[i].fault.fault()
}

// Degraded reports whether any shard is not serving.
func (p *Pool) Degraded() bool {
	for _, sh := range p.shards {
		if sh.fault.load() != StateServing {
			return true
		}
	}
	return false
}

// checkShard validates a shard index for the repair/cordon API.
func (p *Pool) checkShard(i int) error {
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("shard: index %d out of range [0,%d)", i, len(p.shards))
	}
	return nil
}

// BeginRepair claims a quarantined shard for repair, moving it to
// StateRepairing. It returns false if the shard is in any other state —
// exactly one repairer can hold a shard at a time.
func (p *Pool) BeginRepair(i int) bool {
	if p.checkShard(i) != nil {
		return false
	}
	p.sendMu.RLock()
	closed := p.closed
	p.sendMu.RUnlock()
	if closed {
		// A repairer must never touch durable state for a pool that is
		// shutting down — the store may already be handing the directory
		// to a successor.
		return false
	}
	st, ok := p.shards[i].fault.fire(evRepairBegin)
	if ok {
		p.met.transition(st)
	}
	return ok
}

// AdoptShard completes a repair: it swaps the rebuilt, re-verified
// controller in for the tainted one and returns the shard to service. The
// caller must hold the repair claim (BeginRepair) and must only call this
// after the replacement passed a full verification sweep.
func (p *Pool) AdoptShard(i int, sm *core.SecureMemory) error {
	if err := p.checkShard(i); err != nil {
		return err
	}
	sh := p.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.fault.fire(evRepairOK); !ok {
		return fmt.Errorf("shard: adopt shard %d: not repairing (state %s)", i, st)
	}
	sh.sm = sm
	sh.fault.clearFault()
	p.svc.repairs.Add(1)
	p.met.transition(StateServing)
	return nil
}

// FailRepair releases a failed repair claim. With trip=false the shard
// returns to StateQuarantined for another attempt; with trip=true the
// crash-loop breaker fires and the shard stays down until an operator
// uncordons it. The pool keeps serving either way.
func (p *Pool) FailRepair(i int, trip bool) {
	if p.checkShard(i) != nil {
		return
	}
	ev := evRepairFail
	if trip {
		ev = evBreakerTrip
	}
	if st, ok := p.shards[i].fault.fire(ev); ok {
		p.met.transition(st)
	}
	p.svc.repairFailures.Add(1)
}

// ReverifyShard repairs a quarantined shard in place: it claims the
// repair, runs the full verification sweep over the existing controller,
// and returns it to service only if the sweep passes. This is the online
// re-verification path for shards whose memory is intact (an operator
// cordon, a transient fault): no rebuild, but the same rule — nothing
// serves again without a fresh verification against the sealed root.
func (p *Pool) ReverifyShard(i int) error {
	if err := p.checkShard(i); err != nil {
		return err
	}
	sh := p.shards[i]
	if st, ok := sh.fault.fire(evRepairBegin); !ok {
		return fmt.Errorf("shard: reverify shard %d: not quarantined (state %s)", i, st)
	}
	p.met.transition(StateRepairing)
	sh.mu.Lock()
	err := sh.sm.VerifyAll()
	if err != nil {
		sh.mu.Unlock()
		if st, ok := sh.fault.fire(evRepairFail); ok {
			p.met.transition(st)
		}
		p.svc.repairFailures.Add(1)
		return fmt.Errorf("shard %d: reverify: %w", i, err)
	}
	if _, ok := sh.fault.fire(evRepairOK); !ok {
		sh.mu.Unlock()
		return fmt.Errorf("shard: reverify shard %d: lost repair claim", i)
	}
	sh.fault.clearFault()
	sh.mu.Unlock()
	p.svc.repairs.Add(1)
	p.met.transition(StateServing)
	return nil
}

// Cordon takes a shard out of service by operator decision: it moves to
// StateDown (no repair attempts) until Uncordon. Useful for draining a
// suspect shard or measuring degraded-pool behaviour.
func (p *Pool) Cordon(i int) error {
	if err := p.checkShard(i); err != nil {
		return err
	}
	sh := p.shards[i]
	if st, ok := sh.fault.fire(evCordon); !ok {
		return fmt.Errorf("shard: cordon shard %d: illegal from state %s", i, st)
	}
	sh.fault.setFault(FaultOperator, errors.New("operator cordon"))
	p.svc.faults.Add(1)
	p.met.transition(StateDown)
	return nil
}

// Uncordon asks for a down shard back. The shard moves to
// StateQuarantined — never straight to serving — so it must pass repair
// (durability layer attached) or in-place re-verification (no hook)
// before it serves again.
func (p *Pool) Uncordon(i int) error {
	if err := p.checkShard(i); err != nil {
		return err
	}
	sh := p.shards[i]
	if st, ok := sh.fault.fire(evUncordon); !ok {
		return fmt.Errorf("shard: uncordon shard %d: illegal from state %s", i, st)
	}
	p.met.transition(StateQuarantined)
	kind, cause := sh.fault.fault()
	p.notifyFault(Fault{Shard: i, Kind: kind, Err: cause})
	if p.hook.Load() == nil {
		// No durability layer to rebuild from: re-verify in place.
		return p.ReverifyShard(i)
	}
	return nil
}

// UntrustedMemory returns shard i's off-chip physical memory — the
// untrusted substrate an adversary or chaos injector tampers with. The
// handle goes stale when a repair swaps the controller; fetch a fresh one
// per injection.
func (p *Pool) UntrustedMemory(i int) *mem.Memory {
	if p.checkShard(i) != nil {
		return nil
	}
	sh := p.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sm.Memory()
}
