package shard

import (
	"fmt"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// MutKind enumerates the mutating operations a pool reports to its
// CommitHook and accepts back through ReplayOp and ApplyOpImage.
type MutKind uint8

// Mutating operation kinds.
const (
	MutWrite MutKind = iota + 1
	MutSwapOut
	MutSwapIn
	MutMove
)

func (k MutKind) String() string {
	switch k {
	case MutWrite:
		return "write"
	case MutSwapOut:
		return "swapout"
	case MutSwapIn:
		return "swapin"
	case MutMove:
		return "move"
	default:
		return fmt.Sprintf("MutKind(%d)", uint8(k))
	}
}

// MutOp is one mutating operation in shard execution order. Addr is
// shard-local. Data aliases the submitter's buffer for writes; hooks must
// finish with it before Commit returns and must not retain it.
type MutOp struct {
	Kind MutKind
	Addr layout.Addr
	Virt uint64 // Meta.VirtAddr for writes; destination page address for moves
	PID  uint32 // Meta.PID for writes
	Slot int    // directory slot for swapout/swapin
	Data []byte // plaintext for writes
	Img  *core.PageImage
}

// CommitHook makes a batch of mutating operations durable before they are
// applied and acknowledged. The pool calls Commit from the shard's worker
// with the shard lock held, after draining a batch and before executing
// it, so one call covers one group commit. The ops carry every mutation in
// the batch in execution order, including writes a later op in the same
// batch supersedes (replaying the full sequence reproduces the same final
// state). A Commit error fails the whole batch: no op executes and every
// waiter receives the error, so nothing is acknowledged that was not first
// made durable.
type CommitHook interface {
	Commit(shard int, ops []MutOp) error
}

// SetCommitHook installs (or, with nil, removes) the pool's commit hook.
// Install it before the pool serves traffic: operations executed earlier
// are not retroactively reported.
func (p *Pool) SetCommitHook(h CommitHook) {
	if h == nil {
		p.hook.Store(nil)
		return
	}
	p.hook.Store(&hookRef{h: h})
}

// hookRef boxes a CommitHook so atomic.Pointer can hold the interface.
type hookRef struct{ h CommitHook }

// Shards returns the number of shards in the pool.
func (p *Pool) Shards() int { return len(p.shards) }

// ReplayOp applies one mutating operation directly to a shard's
// controller, bypassing the queue and the commit hook. It is the replay
// counterpart to CommitHook: a standby feeds shipped operations back
// through it, in their logged order, to follow its owner. Errors that the
// live execution would also have produced (bad range, unsupported op,
// stale slot) are returned for the caller to classify; integrity failures
// surface as core.ErrTampered. A replayed MutSwapOut returns the swap
// image it regenerates (see ApplyOpImage).
func (p *Pool) ReplayOp(shard int, op MutOp) (*core.PageImage, error) {
	if shard < 0 || shard >= len(p.shards) {
		return nil, fmt.Errorf("shard: replay: shard %d out of range [0,%d)", shard, len(p.shards))
	}
	sh := p.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ApplyOpImage(sh.sm, op)
}

// ApplyOpImage applies one mutating operation to a bare controller — the
// replay primitive shared by ReplayOp and by the durability layer, which
// rebuilds a shard's controller off to the side (crash recovery, online
// repair, baseline import) before a pool adopts it. A replayed MutSwapOut
// returns the swap image it regenerates from chip state: live execution
// handed that image to the swap device, and a recovery that rebuilds the
// swap device needs it again. Every other kind returns a nil image.
func ApplyOpImage(sm *core.SecureMemory, op MutOp) (*core.PageImage, error) {
	switch op.Kind {
	case MutWrite:
		return nil, sm.Write(op.Addr, op.Data, core.Meta{VirtAddr: op.Virt, PID: op.PID})
	case MutSwapOut:
		return sm.SwapOut(op.Addr, op.Slot)
	case MutSwapIn:
		return nil, sm.SwapIn(op.Img, op.Addr, op.Slot)
	case MutMove:
		return nil, sm.MovePage(op.Addr, layout.Addr(op.Virt))
	default:
		return nil, fmt.Errorf("shard: replay: unknown op kind %d", op.Kind)
	}
}

// mutOps extracts the batch's mutating operations in execution order.
func mutOps(batch []*request) []MutOp {
	var ops []MutOp
	for _, r := range batch {
		switch r.kind {
		case opWrite:
			ops = append(ops, MutOp{Kind: MutWrite, Addr: r.addr, Virt: r.meta.VirtAddr, PID: r.meta.PID, Data: r.buf})
		case opSwapOut:
			ops = append(ops, MutOp{Kind: MutSwapOut, Addr: r.addr, Slot: r.slot})
		case opSwapIn:
			ops = append(ops, MutOp{Kind: MutSwapIn, Addr: r.addr, Slot: r.slot, Img: r.img})
		case opMove:
			ops = append(ops, MutOp{Kind: MutMove, Addr: r.addr, Virt: uint64(r.dst)})
		}
	}
	return ops
}
