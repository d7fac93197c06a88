// Package shard turns the single-threaded secure memory controller into a
// concurrent service core: a pool of N independent core.SecureMemory
// instances, each owning an interleaved slice of the protected address
// space (shard = hash of the page address), each guarded by its own mutex
// and fed by a dedicated worker goroutine through a bounded request queue.
//
// The design follows the service-layer lessons of the related work: HMT
// (Shadab et al.) overlaps integrity-tree work across parallel in-flight
// requests, and "Streamlining Integrity Tree Updates" (Freij et al.) wins
// throughput by coalescing tree updates. Here parallelism comes from page
// sharding (pages never share counter blocks, data MACs or Bonsai tree
// leaves across shards, so shards are cryptographically independent), and
// coalescing happens in each shard's worker: queued requests are drained
// and executed in batches under one lock acquisition, with superseded
// duplicate writes dropped before they reach the controller.
//
// Ordering contract: requests to the same shard execute in enqueue order,
// so a client that issues its operations synchronously reads its own
// writes. Requests to different shards are unordered with respect to each
// other, exactly like independent memory channels.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
)

// Defaults for Config fields left zero.
const (
	DefaultShards     = 4
	DefaultQueueDepth = 64
	DefaultBatchMax   = 16
)

// Config sizes the pool.
type Config struct {
	// Shards is the number of independent controllers (default 4). The
	// pool-wide data region is interleaved across them page by page.
	Shards int
	// QueueDepth bounds each shard's request queue (default 64). A full
	// queue exerts backpressure: Enqueue blocks until space or the
	// request's context is done.
	QueueDepth int
	// BatchMax caps how many queued requests one worker wakeup executes
	// under a single lock acquisition (default 16).
	BatchMax int
	// Core is the controller template. Core.DataBytes is the POOL-WIDE
	// protected size and must divide evenly into Shards pages; every other
	// field (key, schemes, MAC width, swap slots) applies to each shard.
	Core core.Config
	// Obs, when non-nil, wires the observability subsystem in: workers
	// record queue wait, batch size and commit-stage histograms, and
	// requests whose Meta.Trace is nonzero get a per-stage span record in
	// their shard's trace ring. The Service must have been built for at
	// least Shards shards and must not back a second pool.
	Obs *obs.Service
}

// ErrClosed is returned for requests issued after Close begins.
var ErrClosed = errors.New("shard: pool is closed")

// Pool is a page-sharded set of secure memory controllers behind
// per-shard worker goroutines. All exported methods are safe for
// concurrent use.
type Pool struct {
	cfg           Config
	perShardBytes uint64
	shards        []*shard

	// sendMu serializes request submission against Close: enqueuers hold
	// it shared, Close takes it exclusively before closing the queues.
	sendMu sync.RWMutex
	closed bool

	// hook, when set, is invoked with each batch's mutations before they
	// execute (see CommitHook); nil means no durability layer is attached.
	hook  atomic.Pointer[hookRef]
	fence atomic.Pointer[fenceRef]

	// faults carries best-effort quarantine notifications (see Faults).
	faults chan Fault

	svc serviceCounters
	met *poolMetrics // nil when Config.Obs is nil
}

// shard is one controller plus its queue and worker.
type shard struct {
	mu    sync.Mutex // guards sm (worker batches, stats/root/hibernate peeks)
	sm    *core.SecureMemory
	reqs  chan *request
	done  chan struct{} // closed when the worker exits
	fault faultState    // the shard's fault-containment latch
}

// opKind enumerates the operations a request can carry.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opVerify
	opSwapOut
	opSwapIn
	opMove
)

// request travels through a shard queue; addr is shard-local.
type request struct {
	kind opKind
	ctx  context.Context
	addr layout.Addr
	dst  layout.Addr // move destination (shard-local)
	buf  []byte
	meta core.Meta
	slot int
	img  *core.PageImage
	resp chan result
	// enq is the submit-side enqueue timestamp (unix ns), stamped only
	// when observability is wired; the worker derives queue-wait from it.
	enq int64
	// answered is worker-local bookkeeping: coalesceWrites sets it after
	// delivering a superseded write's result so execute skips the request.
	// Only the worker goroutine touches it (between dequeue and answer);
	// the submitter never reads it, so no synchronisation is needed. The
	// resp field itself must never be mutated — the submitter loads it
	// unsynchronised while waiting for the result.
	answered bool
}

// result is a request's outcome.
type result struct {
	err error
	img *core.PageImage
}

// New builds the pool and starts one worker per shard.
func New(cfg Config) (*Pool, error) {
	cfg, ccfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	sms := make([]*core.SecureMemory, cfg.Shards)
	for i := range sms {
		if sms[i], err = core.New(ccfg); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return Assemble(cfg, sms)
}

// Assemble builds a pool around controllers that already exist, one per
// shard in shard order, each built under the controller configuration
// Sections returns for cfg (typically resumed from a snapshot image and
// verified), and starts their workers.
func Assemble(cfg Config, sms []*core.SecureMemory) (*Pool, error) {
	cfg, _, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if len(sms) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d controllers for %d shards", len(sms), cfg.Shards)
	}
	p := &Pool{
		cfg:           cfg,
		perShardBytes: cfg.Core.DataBytes / uint64(cfg.Shards),
		faults:        make(chan Fault, 32),
	}
	for _, sm := range sms {
		p.shards = append(p.shards, &shard{
			sm:   sm,
			reqs: make(chan *request, cfg.QueueDepth),
			done: make(chan struct{}),
		})
	}
	if cfg.Obs != nil {
		p.met = newPoolMetrics(cfg.Obs, p)
	}
	for i, sh := range p.shards {
		go p.worker(i, sh)
	}
	return p, nil
}

// resolve fills in cfg's defaults, validates it, and returns it with the
// controller configuration of one shard.
func (cfg Config) resolve() (Config, core.Config, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = DefaultBatchMax
	}
	if cfg.Shards < 1 || cfg.QueueDepth < 1 || cfg.BatchMax < 1 {
		return cfg, core.Config{}, fmt.Errorf("shard: Shards, QueueDepth and BatchMax must be positive")
	}
	stride := uint64(cfg.Shards) * layout.PageSize
	if cfg.Core.DataBytes == 0 || cfg.Core.DataBytes%stride != 0 {
		return cfg, core.Config{}, fmt.Errorf("shard: DataBytes %d must be a positive multiple of Shards*PageSize (%d)", cfg.Core.DataBytes, stride)
	}
	ccfg := cfg.Core
	ccfg.DataBytes /= uint64(cfg.Shards)
	return cfg, ccfg, nil
}

// Config returns the pool's (defaulted) configuration.
func (p *Pool) Config() Config { return p.cfg }

// DataBytes returns the pool-wide protected data size.
func (p *Pool) DataBytes() uint64 { return p.cfg.Core.DataBytes }

// locate hashes a pool address to its shard and shard-local address. The
// hash is modular page interleaving: consecutive pages land on
// consecutive shards, and page k of shard s is pool page k*Shards+s.
func (p *Pool) locate(a layout.Addr) (int, layout.Addr) {
	page := uint64(a) / layout.PageSize
	si := int(page % uint64(p.cfg.Shards))
	local := (page/uint64(p.cfg.Shards))*layout.PageSize + uint64(a)%layout.PageSize
	return si, layout.Addr(local)
}

// checkRange validates a pool-address span.
func (p *Pool) checkRange(a layout.Addr, n int) error {
	if n < 0 || uint64(a) >= p.cfg.Core.DataBytes || uint64(n) > p.cfg.Core.DataBytes-uint64(a) {
		return fmt.Errorf("shard: [%#x, %#x) outside pool data region", a, uint64(a)+uint64(n))
	}
	return nil
}

// submit enqueues a request on a shard and waits for its result,
// honouring ctx both while blocked on a full queue (backpressure) and
// while awaiting execution. A latched shard refuses immediately with a
// QuarantineError — its queue may be mid-drain, and callers should fail
// fast rather than wait behind requests that will all be refused anyway.
func (p *Pool) submit(si int, sh *shard, r *request) (result, error) {
	p.sendMu.RLock()
	if p.closed {
		p.sendMu.RUnlock()
		return result{}, ErrClosed
	}
	if sh.fault.load() != StateServing {
		p.sendMu.RUnlock()
		p.svc.quarRefused.Add(1)
		return result{}, sh.quarErr(si)
	}
	if p.met != nil {
		r.enq = time.Now().UnixNano()
	}
	var err error
	select {
	case sh.reqs <- r:
		p.svc.enqueued.Add(1)
	case <-r.ctx.Done():
		p.svc.rejected.Add(1)
		err = r.ctx.Err()
	}
	p.sendMu.RUnlock()
	if err != nil {
		return result{}, err
	}
	select {
	case res := <-r.resp:
		return res, res.err
	case <-r.ctx.Done():
		// The worker still executes the request (it is already ordered in
		// the queue) and its send to the buffered resp channel won't block;
		// the caller just stops waiting.
		p.svc.rejected.Add(1)
		return result{}, r.ctx.Err()
	}
}

// opOn runs a single-shard operation through the queue.
func (p *Pool) opOn(si int, r *request) (result, error) {
	r.resp = make(chan result, 1)
	return p.submit(si, p.shards[si], r)
}

// Read copies len(dst) plaintext bytes starting at pool address a,
// splitting the span page by page across shards. Each page-sized piece is
// verified and decrypted by its shard's controller.
func (p *Pool) Read(ctx context.Context, a layout.Addr, dst []byte, meta core.Meta) error {
	if err := p.checkRange(a, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		n := int(layout.PageSize - uint64(a)%layout.PageSize)
		if n > len(dst) {
			n = len(dst)
		}
		si, local := p.locate(a)
		if _, err := p.opOn(si, &request{kind: opRead, ctx: ctx, addr: local, buf: dst[:n], meta: meta}); err != nil {
			return err
		}
		dst = dst[n:]
		a += layout.Addr(n)
	}
	return nil
}

// Write stores len(src) plaintext bytes starting at pool address a,
// splitting the span page by page across shards.
func (p *Pool) Write(ctx context.Context, a layout.Addr, src []byte, meta core.Meta) error {
	if err := p.checkRange(a, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		n := int(layout.PageSize - uint64(a)%layout.PageSize)
		if n > len(src) {
			n = len(src)
		}
		si, local := p.locate(a)
		if _, err := p.opOn(si, &request{kind: opWrite, ctx: ctx, addr: local, buf: src[:n], meta: meta}); err != nil {
			return err
		}
		src = src[n:]
		a += layout.Addr(n)
	}
	return nil
}

// Verify sweeps every shard through its full verification path
// (core.VerifyAll), in parallel, ordered after each shard's pending
// writes. The first integrity violation is returned.
func (p *Pool) Verify(ctx context.Context) error {
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.opOn(i, &request{kind: opVerify, ctx: ctx})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// SwapOut evicts the page at pool address pageAddr from its shard into a
// relocatable PageImage, publishing its page root in that shard's Page
// Root Directory slot.
func (p *Pool) SwapOut(ctx context.Context, pageAddr layout.Addr, slot int) (*core.PageImage, error) {
	if err := p.checkRange(pageAddr, layout.PageSize); err != nil {
		return nil, err
	}
	si, local := p.locate(pageAddr)
	res, err := p.opOn(si, &request{kind: opSwapOut, ctx: ctx, addr: local, slot: slot})
	if err != nil {
		return nil, err
	}
	return res.img, nil
}

// SwapIn installs a PageImage at pool address pageAddr, verified against
// the page root stored in that shard's directory slot. The image must
// return to a frame of the shard it was swapped out of (its page root
// lives in that shard's directory); with the interleaved hash that means
// any frame whose page number is congruent to the original's mod Shards.
func (p *Pool) SwapIn(ctx context.Context, img *core.PageImage, pageAddr layout.Addr, slot int) error {
	if err := p.checkRange(pageAddr, layout.PageSize); err != nil {
		return err
	}
	si, local := p.locate(pageAddr)
	_, err := p.opOn(si, &request{kind: opSwapIn, ctx: ctx, addr: local, slot: slot, img: img})
	return err
}

// MovePage relocates the page at oldPage into the frame at newPage — the
// hot-page migration primitive. Both pages must live on the same shard
// (page-interleaved placement: page numbers congruent mod Shards), because
// the page's counters, MACs and tree coverage belong to one controller.
// Under AISE the move is a verbatim metadata copy; physical-address seeds
// pay a full re-encryption (the §4.2 comparison, now measurable under
// service load).
func (p *Pool) MovePage(ctx context.Context, oldPage, newPage layout.Addr, meta core.Meta) error {
	if err := p.checkRange(oldPage, layout.PageSize); err != nil {
		return err
	}
	if err := p.checkRange(newPage, layout.PageSize); err != nil {
		return err
	}
	si, localOld := p.locate(oldPage)
	di, localNew := p.locate(newPage)
	if si != di {
		return fmt.Errorf("shard: move %#x -> %#x crosses shards %d -> %d", oldPage, newPage, si, di)
	}
	_, err := p.opOn(si, &request{kind: opMove, ctx: ctx, addr: localOld, dst: localNew, meta: meta})
	return err
}

// Roots returns a copy of every shard's on-chip Merkle tree root (nil
// entries when the integrity scheme keeps no tree). The service's trust
// anchor is the set of per-shard roots, one per simulated controller.
func (p *Pool) Roots() [][]byte {
	roots := make([][]byte, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		roots[i] = sh.sm.Root()
		sh.mu.Unlock()
	}
	return roots
}

// Close drains the pool: it stops accepting requests, waits for every
// queued request to execute, stops the workers, and runs a final integrity
// sweep over every shard. It returns the lowest-numbered shard's
// verification error.
func (p *Pool) Close() error {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return ErrClosed
	}
	p.closed = true
	p.sendMu.Unlock()
	// No sender holds sendMu.RLock anymore, so the queues are ours to
	// close; workers drain what is already queued and exit.
	for _, sh := range p.shards {
		close(sh.reqs)
	}
	for _, sh := range p.shards {
		<-sh.done
	}
	// The workers are gone and the controllers are independent: sweep them
	// concurrently, as Verify does, and report the lowest-numbered failure.
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := p.shards[i]
			sh.mu.Lock()
			errs[i] = sh.sm.VerifyAll()
			sh.mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: close verify: %w", i, err)
		}
	}
	return nil
}

// worker is a shard's execution loop: it blocks for one request, then
// greedily drains up to BatchMax-1 more, commits the batch's mutations
// through the hook (group commit), coalesces superseded writes, and
// executes the batch under a single lock acquisition.
func (p *Pool) worker(idx int, sh *shard) {
	defer close(sh.done)
	batch := make([]*request, 0, p.cfg.BatchMax)
	recs := make([]obs.Record, 0, p.cfg.BatchMax)
	for first := range sh.reqs {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < p.cfg.BatchMax {
			select {
			case r, ok := <-sh.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		sh.mu.Lock()
		// A latched shard refuses the whole batch: requests enqueued before
		// the fault (or racing the submit-side check) must not execute
		// against a controller whose state can no longer be trusted.
		if sh.fault.load() != StateServing {
			err := sh.quarErr(idx)
			p.svc.quarRefused.Add(uint64(len(batch)))
			for _, r := range batch {
				r.resp <- result{err: err}
			}
			sh.mu.Unlock()
			continue
		}
		// Stage timing: queue wait per request, then the batch-shared
		// commit and coalesce costs every traced request in the batch
		// inherits (they rode the same group commit).
		var span batchSpan
		if p.met != nil {
			span.startNs = time.Now().UnixNano()
			for _, r := range batch {
				p.met.observeQueueWait(span.startNs - r.enq)
			}
		}
		ops := mutOps(batch)
		// The write fence runs before the commit hook: a cluster node that
		// has been deposed (its follower promoted with a higher fencing
		// epoch) must refuse mutations at the commit boundary, even for
		// batches that passed routing before the fence dropped. A fence
		// error fails the whole batch unexecuted.
		if fref := p.fence.Load(); fref != nil && len(ops) > 0 {
			if err := fref.f(idx, ops); err != nil {
				err = fmt.Errorf("shard %d: fence: %w", idx, err)
				for _, r := range batch {
					r.resp <- result{err: err}
				}
				sh.mu.Unlock()
				continue
			}
		}
		// The hook runs before coalescing so the log carries every mutation
		// in order, and before execution so nothing is acknowledged that was
		// not first made durable. A hook failure fails the whole batch
		// unexecuted: the pool refuses to apply what it cannot log. A hook
		// failure marked ErrDurabilityFault additionally quarantines the
		// shard — the log can no longer be trusted to match execution, so
		// this shard (and only this shard) stops serving.
		if href := p.hook.Load(); href != nil {
			if len(ops) > 0 {
				err := href.h.Commit(idx, ops)
				if p.met != nil {
					cs := p.met.takeCommitStages(idx)
					span.appendNs, span.fsyncNs = cs.AppendNs, cs.FsyncNs
					p.met.observeCommit(cs)
				}
				if err != nil {
					err = fmt.Errorf("shard %d: commit: %w", idx, err)
					if errors.Is(err, ErrDurabilityFault) {
						p.quarantine(idx, sh, FaultDurability, err)
					}
					for _, r := range batch {
						r.resp <- result{err: err}
					}
					sh.mu.Unlock()
					continue
				}
			}
		}
		var coalesceStart time.Time
		if p.met != nil {
			coalesceStart = time.Now()
		}
		skipped := coalesceWrites(batch)
		if p.met != nil {
			span.coalesceNs = time.Since(coalesceStart).Nanoseconds()
		}
		p.svc.batches.Add(1)
		p.svc.batchedOps.Add(uint64(len(batch)))
		p.svc.coalescedWrites.Add(uint64(skipped))
		p.met.observeBatch(len(batch))
		// Open the tree batch window: the controller defers Merkle tree
		// propagation for the batch's writes into one coalescing,
		// level-ordered pass committed at EndTreeBatch below. Reads and
		// swaps mid-batch commit pending updates themselves (treeBarrier).
		span.recs = recs[:0]
		sh.sm.BeginTreeBatch()
		latched := false
		for bi, r := range batch {
			if !p.executeTraced(idx, sh, r, &span) {
				// Integrity latch fired mid-batch: nothing after the faulting
				// request may execute. Refuse the remainder so the shard
				// never serves data past a detected tamper.
				latched = true
				err := sh.quarErr(idx)
				for _, rest := range batch[bi+1:] {
					if rest.answered {
						continue
					}
					p.svc.quarRefused.Add(1)
					rest.resp <- result{err: err}
				}
				break
			}
		}
		if latched {
			// The controller is quarantined and will be rebuilt from
			// snapshot+WAL; its pending tree updates are moot.
			sh.sm.AbortTreeBatch()
		} else {
			var treeStart time.Time
			if p.met != nil {
				treeStart = time.Now()
			}
			if err := sh.sm.EndTreeBatch(); err != nil {
				p.quarantine(idx, sh, FaultIntegrity, fmt.Errorf("shard %d: tree batch commit: %w", idx, err))
			}
			if p.met != nil {
				span.treeNs = time.Since(treeStart).Nanoseconds()
			}
		}
		// Publish buffered trace records now that the batch-shared tree
		// span is known (records were assembled during execution).
		if p.met != nil && len(span.recs) > 0 {
			if ring := p.met.ring(idx); ring != nil {
				for i := range span.recs {
					span.recs[i].TreeNs = span.treeNs
					ring.Publish(&span.recs[i])
				}
			}
		}
		recs = span.recs[:0]
		sh.mu.Unlock()
	}
}

// batchSpan carries the batch-shared stage costs the worker attributes
// to every traced request it executes, plus the batch's buffered trace
// records: records cannot publish until the tree span is known, because
// the coalesced tree pass runs after the last request executes.
type batchSpan struct {
	startNs    int64 // worker drain timestamp (unix ns)
	coalesceNs int64
	appendNs   int64
	fsyncNs    int64
	treeNs     int64
	recs       []obs.Record
}

// executeTraced wraps execute with per-request span capture: a request
// carrying a nonzero Meta.Trace gets a Record buffered on the span (and
// published by the worker after the tree batch commits) combining its own
// queue wait and crypto execution time with the batch-shared
// coalesce/append/fsync/tree costs.
func (p *Pool) executeTraced(idx int, sh *shard, r *request, span *batchSpan) bool {
	if p.met == nil || r.meta.Trace == 0 || r.answered {
		ok, _ := p.execute(idx, sh, r)
		return ok
	}
	execStart := time.Now()
	ok, err := p.execute(idx, sh, r)
	var status uint8
	if err != nil {
		status = 1
	}
	queueNs := span.startNs - r.enq
	if queueNs < 0 {
		queueNs = 0
	}
	span.recs = append(span.recs, obs.Record{
		TraceID:    r.meta.Trace,
		Shard:      uint32(idx),
		Op:         uint8(r.kind),
		Status:     status,
		StartNs:    r.enq,
		QueueNs:    queueNs,
		CoalesceNs: span.coalesceNs,
		AppendNs:   span.appendNs,
		FsyncNs:    span.fsyncNs,
		ExecNs:     time.Since(execStart).Nanoseconds(),
	})
	return ok
}

// execute runs one request against the shard's controller (the caller
// holds sh.mu) and delivers its result. A request whose context expired
// while queued is answered with the context error without touching the
// controller, so the client's timeout means "not applied". The return
// value reports whether the shard may keep executing: an integrity
// violation (core.ErrTampered) on the shard's own state latches the
// quarantine and returns false. SwapIn is exempt — a tampered *client*
// image is the client's fault, not evidence against the shard, and must
// not let a malicious client take a fault domain down. The error return
// is the request's own outcome, for trace status labelling.
func (p *Pool) execute(idx int, sh *shard, r *request) (bool, error) {
	if r.answered { // coalesced-away write: result already delivered
		return true, nil
	}
	if err := r.ctx.Err(); err != nil {
		p.svc.expired.Add(1)
		r.resp <- result{err: err}
		return true, err
	}
	var res result
	switch r.kind {
	case opRead:
		res.err = sh.sm.Read(r.addr, r.buf, r.meta)
	case opWrite:
		res.err = sh.sm.Write(r.addr, r.buf, r.meta)
	case opVerify:
		res.err = sh.sm.VerifyAll()
	case opSwapOut:
		res.img, res.err = sh.sm.SwapOut(r.addr, r.slot)
	case opSwapIn:
		res.err = sh.sm.SwapIn(r.img, r.addr, r.slot)
	case opMove:
		res.err = sh.sm.MovePage(r.addr, r.dst)
	}
	ok := true
	if res.err != nil && r.kind != opSwapIn && errors.Is(res.err, core.ErrTampered) {
		p.quarantine(idx, sh, FaultIntegrity, fmt.Errorf("shard %d: %s: %w", idx, kindName(r.kind), res.err))
		ok = false
	}
	r.resp <- result{err: res.err, img: res.img}
	return ok, res.err
}

// kindName names an opKind for fault reports.
func kindName(k opKind) string {
	switch k {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opVerify:
		return "verify"
	case opSwapOut:
		return "swapout"
	case opSwapIn:
		return "swapin"
	case opMove:
		return "move"
	default:
		return "op"
	}
}

// coalesceWrites drops writes that a later write in the same batch fully
// supersedes: same shard-local address, same length, block-aligned, with
// no intervening operation that could observe the earlier value (any
// non-write clears eligibility — verify reads everything, reads and swaps
// touch pages wholesale). Superseded requests are answered immediately
// (their effect is subsumed by the surviving write) and marked so execute
// skips them. Returns the number of writes dropped.
func coalesceWrites(batch []*request) int {
	if len(batch) < 2 {
		return 0
	}
	type span struct {
		addr layout.Addr
		n    int
	}
	last := make(map[span]int) // span -> index of latest eligible write
	skipped := 0
	for i, r := range batch {
		if r.kind != opWrite {
			clear(last)
			continue
		}
		if uint64(r.addr)%layout.BlockSize != 0 || len(r.buf)%layout.BlockSize != 0 {
			continue
		}
		key := span{addr: r.addr, n: len(r.buf)}
		if j, ok := last[key]; ok {
			// A context already expired on the earlier write still reports
			// its own error; otherwise it succeeds by subsumption.
			prev := batch[j]
			if err := prev.ctx.Err(); err != nil {
				prev.resp <- result{err: err}
			} else {
				prev.resp <- result{}
			}
			prev.answered = true
			skipped++
		}
		last[key] = i
	}
	return skipped
}
