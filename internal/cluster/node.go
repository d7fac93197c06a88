package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
)

// Config wires a Node into a daemon.
type Config struct {
	// Self is this node's member ID; it must appear in Members.
	Self string
	// Members is the static cluster membership.
	Members []Member
	// Pool and Store are the daemon's recovered local pool and its
	// persistence store; the node installs the write fence on the pool
	// and the segment sink on the store.
	Pool  *shard.Pool
	Store *persist.Store
	// ShardCfg is the pool's configuration. Standby pools for peers are
	// built from it (with observability stripped — instruments register
	// once per process, for the local pool).
	ShardCfg shard.Config
	// Key is the processor key; baselines and segments are sealed under
	// the at-rest key derived from it, identically on every member.
	Key []byte
	// DataDir is the daemon's data directory. Promoted standbys open
	// fresh stores in promoted-<owner>-f<fence> subdirectories of it.
	DataDir string
	// Fsync is the durability policy for promoted stores.
	Fsync persist.Policy
	// SnapshotEvery is the background checkpoint period for promoted
	// stores (the node's own store is configured by whoever opened it).
	// Without it an adopted range's WAL grows unbounded and its rotate
	// hook — the stream's proactive re-baseline point — never fires.
	// Zero disables background checkpoints on promoted stores.
	SnapshotEvery time.Duration
	// ReplListener accepts replication streams from peers (the address
	// advertised as this member's Repl). Nil disables the receiver (and
	// with it this node's ability to hold standbys) — single-node rings.
	ReplListener net.Listener
	// Proxy, when true, forwards misrouted requests to the owner instead
	// of answering NotOwner, so plain clients work against any node. A
	// request a peer's proxy forwarded is never forwarded again.
	Proxy bool

	// Obs registers the secmemd_cluster_* metrics; nil is allowed.
	Obs *obs.Service
	// Logf receives failover and replication lifecycle events.
	Logf func(format string, args ...any)

	// Dialer opens replication connections and a proxy's connections to
	// its peers' wire ports (chaos tests inject partitions here); nil
	// means net.Dial with IOTimeout. The from argument is this node's ID.
	Dialer func(from, addr string) (net.Conn, error)
	// Probe checks a member's liveness; nil means an HTTP GET of
	// http://<health>/healthz. The from argument is this node's ID.
	Probe func(from string, m Member) error
	// ProbeEvery is the failover monitor period (default 250ms).
	ProbeEvery time.Duration
	// FailAfter is how many consecutive failed probes of an owner make
	// its follower promote (default 4).
	FailAfter int
	// IOTimeout bounds each replication send/ack round trip and the
	// attach handshake (default 5s).
	IOTimeout time.Duration
	// AttachBackoff is the shipper's retry delay between failed attach
	// sweeps (default 50ms, doubling with jitter to 1s).
	AttachBackoff time.Duration
	// RereplGrace bounds the single-copy window after a promotion: a
	// promoted range may acknowledge writes unreplicated for this long
	// while re-replication establishes a standby on a successor; past it,
	// writes stall retryably (repl-stalled) until a standby attaches —
	// the last-resort fence. Default 5s.
	RereplGrace time.Duration
	// InitialView, when non-nil, supplies the membership view (a joining
	// daemon fetched it from a seed member) instead of deriving epoch 0
	// from Members. Self must appear in its member list.
	InitialView *View
}

// standby is a warm copy of one range's state: the imported pool plus
// the segment cursors its stream advances. owner is the range (lineage)
// replicated; src is the member shipping the stream — the same as owner
// for a founding owner's own stream, but the promoted or handed-off
// holder for re-replication streams. mu serializes segment application
// against promotion, so a promoted pool is never mutated by a straggling
// replication frame.
type standby struct {
	owner string
	src   string
	mu    sync.Mutex
	pool  *shard.Pool
	curs  []*persist.SegmentCursor
	fence uint64
	// promoted flips under mu when failover adopts the pool; the stream
	// handler answers ackFenced from then on.
	promoted bool
	// live is true while a stream is attached (diagnostic only).
	live bool
}

// promotedRange is a dead peer's range this node now serves: the adopted
// pool bound to its own fresh store under a higher fencing epoch.
type promotedRange struct {
	owner string
	pool  *shard.Pool
	store *persist.Store
	fence uint64
}

// Node federates one secmemd daemon into the cluster. It implements
// server.Backend: requests for pages this node owns hit the local pool,
// requests for ranges it promoted hit the adopted pools, and everything
// else is redirected (or proxied) to the owner. A node does not serve
// its own range until its first follower handshake resolves — attached,
// fenced, or no-followers — so a rebooted deposed owner can never serve
// stale state.
type Node struct {
	cfg  Config
	self Member
	met  *metrics
	ship *shipper  // own-range stream; nil for lineage-less (joined) members
	fwd  *peerPool // proxy mode's connections to peers

	// selfLineage is this node's founding ring lineage — its own ID when
	// it founded a range, "" for members that joined later and serve
	// nothing of their own.
	selfLineage string

	shards int // local pool shard count

	// view and ms are the applied membership view and the routing
	// structures derived from it (ring over lineages, successor order
	// over members); both swap atomically when a new view is applied.
	// viewMu serializes ratchets and applies; adminMu serializes
	// admin-initiated membership operations (join/leave/remove/handoff),
	// which may span several ratchets.
	viewMu  sync.Mutex
	adminMu sync.Mutex
	view    atomic.Pointer[View]
	ms      atomic.Pointer[Membership]
	// monitorOn records that the failover monitor goroutine is running
	// (guarded by viewMu after construction).
	monitorOn bool

	// ready is closed once ownership of the local range is resolved.
	ready     chan struct{}
	readyOnce sync.Once

	mu        sync.Mutex
	deposedTo string                    // member ID holding our range after we were fenced
	standbys  map[string]*standby       // keyed by range (lineage)
	promoted  map[string]*promotedRange // keyed by range (lineage)
	fences    map[string]uint64         // highest fencing epoch seen per range
	// shippers are the re-replication streams for ranges this node
	// serves beyond its own (promoted after failover, or received in a
	// handoff), keyed by range.
	shippers map[string]*shipper
	// rangeDeposed records promoted ranges this node lost again (handed
	// off, or fenced by a failback): range -> holder.
	rangeDeposed map[string]string

	// reap receives adopted ranges deposed mid-flight (fenced by a new
	// holder or handed off); a dedicated goroutine tears their stores
	// down outside the commit path that discovered the deposition.
	reap chan *reapItem

	// rereplLive counts re-replication streams currently attached to a
	// standby, mirrored into the rerepl_attached gauge.
	rereplLive atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	replConnMu sync.Mutex
	replConns  map[net.Conn]struct{}
}

// curView returns the applied membership view.
func (n *Node) curView() *View { return n.view.Load() }

// membership returns the routing structures of the applied view.
func (n *Node) membership() *Membership { return n.ms.Load() }

// NewNode validates cfg, installs the write fence and segment sink, and
// starts the replication receiver, the segment shipper and the failover
// monitor. The returned Node is ready to Publish on a server.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Pool == nil || cfg.Store == nil {
		return nil, errors.New("cluster: Config.Pool and Config.Store are required")
	}
	view := cfg.InitialView
	if view == nil {
		if len(cfg.Members) == 0 {
			return nil, errors.New("cluster: Config.Members or Config.InitialView is required")
		}
		view = initialView(cfg.Members)
	}
	// A persisted view from an earlier incarnation supersedes the boot
	// configuration when newer — membership changes survive restarts.
	if dv, err := loadView(cfg.DataDir, cfg.Key); err != nil {
		return nil, fmt.Errorf("cluster: stored view: %w", err)
	} else if dv != nil && dv.Epoch > view.Epoch {
		view = dv
	}
	if sealed := cfg.Store.MemEpoch(); sealed > view.Epoch {
		// The anchor remembers a newer membership epoch than any view we
		// can see: the view file was rolled back. Fail closed.
		return nil, fmt.Errorf("cluster: membership view epoch %d behind sealed epoch %d", view.Epoch, sealed)
	}
	if view.isRemoved(cfg.Self) {
		return nil, fmt.Errorf("cluster: member %q was removed from the cluster", cfg.Self)
	}
	ms, err := view.membership()
	if err != nil {
		return nil, err
	}
	self, ok := ms.Member(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self ID %q not in member list", cfg.Self)
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 4
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 5 * time.Second
	}
	if cfg.AttachBackoff <= 0 {
		cfg.AttachBackoff = 50 * time.Millisecond
	}
	if cfg.RereplGrace <= 0 {
		cfg.RereplGrace = 5 * time.Second
	}
	var reg *obs.Registry
	if cfg.Obs != nil {
		reg = cfg.Obs.Reg
	}
	n := &Node{
		cfg:          cfg,
		self:         self,
		met:          newMetrics(reg),
		shards:       cfg.Pool.Shards(),
		ready:        make(chan struct{}),
		standbys:     map[string]*standby{},
		promoted:     map[string]*promotedRange{},
		fences:       map[string]uint64{},
		shippers:     map[string]*shipper{},
		rangeDeposed: map[string]string{},
		reap:         make(chan *reapItem, 16),
		closed:       make(chan struct{}),
		replConns:    map[net.Conn]struct{}{},
	}
	n.view.Store(view)
	n.ms.Store(ms)
	for _, l := range view.Lineages {
		if l == cfg.Self {
			n.selfLineage = l
		}
	}
	if cfg.Dialer == nil {
		n.cfg.Dialer = func(_, addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, n.cfg.IOTimeout)
		}
	}
	if cfg.Probe == nil {
		probe := &http.Client{Timeout: n.cfg.ProbeEvery}
		n.cfg.Probe = func(_ string, m Member) error {
			resp, err := probe.Get("http://" + m.Health + "/healthz")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("cluster: %s /healthz: %s", m.ID, resp.Status)
			}
			return nil
		}
	}
	n.met.members.Set(int64(len(view.Members)))
	n.met.viewEpoch.Set(int64(view.Epoch))
	if n.selfLineage != "" {
		n.met.ownedArcs.Set(int64(ms.Ring().Ranges()[n.selfLineage]))
	}
	n.fwd = newPeerPool(n.cfg.IOTimeout, func(addr string) (net.Conn, error) { return n.cfg.Dialer(n.self.ID, addr) })

	cfg.Pool.SetWriteFence(n.writeFence)
	if n.cfg.ReplListener != nil {
		n.wg.Add(1)
		go n.serveRepl(n.cfg.ReplListener)
	}
	ownsRange := n.selfLineage != "" && view.servingMember(n.selfLineage) == n.self.ID
	switch {
	case n.selfLineage != "" && !ownsRange:
		// Our lineage was handed to another member in an earlier epoch:
		// boot deposed — redirects only, until a rejoin stream arrives.
		n.becomeDeposed(view.servingMember(n.selfLineage))
	case !ownsRange:
		// A joined, lineage-less member: nothing of its own to serve or
		// ship; it hosts standbys and answers redirects immediately.
		n.resolveReady()
	case len(view.Members) == 1:
		// No follower exists; the node owns its range unconditionally.
		n.resolveReady()
	default:
		n.ship = newShipper(n, n.selfLineage, cfg.Store, true)
		cfg.Store.SetSegmentSink(n.ship.sink)
		n.wg.Add(1)
		go n.ship.run()
	}
	// The own store's rotate hook is wired even when no own stream exists
	// yet (single member, lineage-less joiner): adopted ranges still need
	// the placement re-evaluation tick it provides.
	cfg.Store.SetRotateHook(n.storeRotated)
	if len(view.Members) > 1 {
		n.monitorOn = true
		n.wg.Add(1)
		go n.monitor()
	}
	n.wg.Add(1)
	go n.reaper()
	return n, nil
}

// reapItem is one deposed adopted range queued for teardown.
type reapItem struct {
	rangeID string
	pr      *promotedRange
	sh      *shipper
}

// reaper tears down adopted stores for ranges this node lost again. The
// deposition is discovered inside a commit (segment ack) or a view
// apply; closing the store there would deadlock on its own locks, so the
// item is queued here instead. Anything still queued at shutdown is
// drained by stop.
func (n *Node) reaper() {
	defer n.wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case it := <-n.reap:
			n.reapOne(it)
		}
	}
}

func (n *Node) reapOne(it *reapItem) {
	it.pr.store.SetSegmentSink(nil)
	it.pr.store.SetRotateHook(nil)
	if it.sh != nil {
		it.sh.close()
	}
	if err := it.pr.store.Checkpoint(); err != nil {
		n.logf("cluster: checkpoint deposed range %s: %v", it.rangeID, err)
	}
	it.pr.pool.Close()
	if err := it.pr.store.Close(); err != nil {
		n.logf("cluster: close deposed range %s: %v", it.rangeID, err)
	}
}

// storeRotated is the own store's checkpoint-rotation hook. The own
// stream's WAL continuity just broke, so it restarts from a fresh
// post-rotation baseline; the tick doubles as the placement
// re-evaluation point for the re-replication streams of adopted ranges
// — a standby that landed on a fallback successor because the preferred
// one was unreachable during a boot or failover race walks back to the
// preferred member once it answers probes again, instead of staying
// parked on the fallback forever.
func (n *Node) storeRotated(epoch uint64) {
	n.mu.Lock()
	ship := n.ship
	shs := make([]*shipper, 0, len(n.shippers))
	for _, sh := range n.shippers {
		shs = append(shs, sh)
	}
	n.mu.Unlock()
	if ship != nil {
		ship.rotated(epoch)
	}
	for _, sh := range shs {
		sh.reevaluate()
	}
}

// rereplDelta adjusts the live re-replication stream count and mirrors
// it into the gauge. Called from shippers, possibly under their stream
// lock — it must take no other locks.
func (n *Node) rereplDelta(d int64) {
	n.met.rereplAttached.Set(n.rereplLive.Add(d))
}

// deposeRange records that an adopted range was fenced away (a new
// holder promoted past us) or handed off. Routing flips to redirects
// immediately; the store teardown happens on the reaper.
func (n *Node) deposeRange(rangeID, holder string) {
	n.mu.Lock()
	pr := n.promoted[rangeID]
	if pr == nil || n.rangeDeposed[rangeID] != "" {
		n.mu.Unlock()
		return
	}
	n.rangeDeposed[rangeID] = holder
	delete(n.promoted, rangeID)
	sh := n.shippers[rangeID]
	delete(n.shippers, rangeID)
	n.met.promoted.Set(int64(len(n.promoted)))
	n.mu.Unlock()
	n.logf("cluster: range %s deposed here; now served by %s", rangeID, holder)
	select {
	case n.reap <- &reapItem{rangeID: rangeID, pr: pr, sh: sh}:
	case <-n.closed:
		// stop drains the queue; anything that never made it into the
		// queue is closed by the graceful path via the maps — but we just
		// removed it, so hand it back for shutdown to find.
		n.mu.Lock()
		if n.promoted[rangeID] == nil {
			n.promoted[rangeID] = pr
		}
		n.mu.Unlock()
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// resolveReady opens the local-range gate.
func (n *Node) resolveReady() {
	n.readyOnce.Do(func() { close(n.ready) })
}

// becomeDeposed records that holder's fencing epoch superseded ours: the
// local range is no longer served here, and own-range requests redirect.
func (n *Node) becomeDeposed(holder string) {
	ms := n.membership()
	n.mu.Lock()
	if n.deposedTo == "" {
		if _, ok := ms.Member(holder); !ok {
			// Unknown or empty holder: best guess is our first successor,
			// the deterministic promotion choice.
			if succ := ms.Successors(n.self.ID); len(succ) > 0 {
				holder = succ[0].ID
			}
		}
		n.deposedTo = holder
		n.met.deposed.Set(1)
		n.logf("cluster: node %s deposed; range now served by %s", n.self.ID, holder)
	}
	n.mu.Unlock()
	// Wake gated requests so they observe the redirect instead of
	// timing out.
	n.resolveReady()
}

// isDeposed reports whether this node was fenced off its own range, and
// by whom.
func (n *Node) isDeposed() (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deposedTo, n.deposedTo != ""
}

// writeFence vets every local mutation at the commit boundary: after
// this node is deposed — or for any op whose page the ring does not
// assign to it — the batch fails with ErrNotOwner before it is logged or
// executed. Requests that passed routing before a failover die here.
func (n *Node) writeFence(shardIdx int, ops []shard.MutOp) error {
	if n.selfLineage == "" {
		// A joined, lineage-less member serves nothing from its local pool.
		n.met.fencedWr.Inc()
		return shard.ErrNotOwner
	}
	if _, dep := n.isDeposed(); dep {
		n.met.fencedWr.Inc()
		return shard.ErrNotOwner
	}
	ring := n.membership().ring
	for _, op := range ops {
		local := uint64(op.Addr) / layout.PageSize
		global := local*uint64(n.shards) + uint64(shardIdx)
		if ring.OwnerPage(global) != n.selfLineage {
			n.met.fencedWr.Inc()
			return shard.ErrNotOwner
		}
	}
	return nil
}

// rangeFence builds the write fence for an adopted (promoted or handed
// off) range: refused once the range was deposed again, and vetted
// against the ring exactly like the local pool's fence.
func (n *Node) rangeFence(rangeID string) shard.WriteFence {
	return func(shardIdx int, ops []shard.MutOp) error {
		n.mu.Lock()
		lost := n.rangeDeposed[rangeID] != "" || n.promoted[rangeID] == nil
		n.mu.Unlock()
		if lost {
			n.met.fencedWr.Inc()
			return shard.ErrNotOwner
		}
		ring := n.membership().ring
		for _, op := range ops {
			local := uint64(op.Addr) / layout.PageSize
			global := local*uint64(n.shards) + uint64(shardIdx)
			if ring.OwnerPage(global) != rangeID {
				n.met.fencedWr.Inc()
				return shard.ErrNotOwner
			}
		}
		return nil
	}
}

// waitReady blocks until local-range ownership is resolved (follower
// attached, no followers configured, or deposed). The strict gate: a
// node that cannot replicate acks nothing, and a node that might have
// been failed over serves nothing until it knows.
func (n *Node) waitReady(ctx context.Context) error {
	select {
	case <-n.ready:
		return nil
	default:
	}
	select {
	case <-n.ready:
		return nil
	case <-n.closed:
		return shard.ErrClosed
	case <-ctx.Done():
		return fmt.Errorf("cluster: awaiting follower attach: %w", ctx.Err())
	}
}

// route resolves the pool serving address a: the local pool for our own
// range, an adopted pool for ranges we promoted or received in a
// handoff, nil plus a redirect target otherwise. The ring owner is a
// lineage; the serving member is resolved through the view's Serving map
// plus this node's discovered promotions and depositions.
func (n *Node) route(ctx context.Context, a layout.Addr) (*shard.Pool, string, error) {
	l := n.membership().ring.Owner(a)
	if l == n.selfLineage && l != "" {
		// A later view may have reassigned our lineage (handoff); failover
		// promotions are not in views, so fall back to the discovered holder.
		holder := func(to string) string {
			if sm := n.curView().servingMember(l); sm != n.self.ID {
				return sm
			}
			return to
		}
		if to, dep := n.isDeposed(); dep {
			return n.routeAdopted(l, holder(to))
		}
		if err := n.waitReady(ctx); err != nil {
			return nil, "", err
		}
		// Re-check: waitReady also unblocks on deposition.
		if to, dep := n.isDeposed(); dep {
			return n.routeAdopted(l, holder(to))
		}
		return n.cfg.Pool, "", nil
	}
	return n.routeAdopted(l, n.curView().servingMember(l))
}

// routeAdopted resolves a range not served from the local pool: an
// adopted pool when this node promoted (or received) the range and still
// holds it, a redirect otherwise. fallback is the best redirect target
// when this node never held the range.
func (n *Node) routeAdopted(l, fallback string) (*shard.Pool, string, error) {
	n.mu.Lock()
	pr := n.promoted[l]
	lost := n.rangeDeposed[l]
	n.mu.Unlock()
	if pr != nil && lost == "" {
		return pr.pool, "", nil
	}
	if lost != "" {
		return nil, lost, nil
	}
	return nil, fallback, nil
}

// redirect converts a non-local route into the wire answer when the node
// does not proxy it (proxying is off, or a peer's proxy already forwarded
// the request): a NotOwner error carrying the target's wire address.
func (n *Node) redirect(to string) error {
	n.met.notOwner.Inc()
	m, ok := n.membership().Member(to)
	if !ok {
		return &server.NotOwnerError{Addr: ""}
	}
	return &server.NotOwnerError{Addr: m.Wire}
}

// wrapOwn translates fence refusals on the local pool into the redirect
// clients can follow. Everything else passes through.
func (n *Node) wrapOwn(err error) error {
	if err == nil || !errors.Is(err, shard.ErrNotOwner) {
		return err
	}
	if to, dep := n.isDeposed(); dep {
		return n.redirect(to)
	}
	// Fence refused a misrouted op while we still own our range: the
	// client's ring view must be wrong; point it at the real owner.
	return &server.NotOwnerError{Addr: ""}
}

// Read implements server.Backend.
func (n *Node) Read(ctx context.Context, a layout.Addr, dst []byte, meta core.Meta) error {
	pool, to, err := n.route(ctx, a)
	if err != nil {
		return err
	}
	if pool != nil {
		return n.wrapOwn(pool.Read(ctx, a, dst, meta))
	}
	if n.cfg.Proxy && !server.Forwarded(ctx) {
		return n.forward(ctx, to, a, func(c *server.Client) error {
			b, err := c.Read(a, len(dst), meta)
			copy(dst, b)
			return err
		})
	}
	return n.redirect(to)
}

// Write implements server.Backend.
func (n *Node) Write(ctx context.Context, a layout.Addr, src []byte, meta core.Meta) error {
	pool, to, err := n.route(ctx, a)
	if err != nil {
		return err
	}
	if pool != nil {
		return n.wrapOwn(pool.Write(ctx, a, src, meta))
	}
	if n.cfg.Proxy && !server.Forwarded(ctx) {
		return n.forward(ctx, to, a, func(c *server.Client) error { return c.Write(a, src, meta) })
	}
	return n.redirect(to)
}

// forward runs op on whichever node serves a's page, starting the
// routing walk at to, the member route resolved as its holder. The walk
// ends early once the client's request context is done.
func (n *Node) forward(ctx context.Context, to string, a layout.Addr, op func(*server.Client) error) error {
	return walk(ctx, n.membership(), n.fwd, &n.fwd.learned, to, uint64(a)/layout.PageSize, op)
}

// SwapOut implements server.Backend.
func (n *Node) SwapOut(ctx context.Context, a layout.Addr, slot int) (*core.PageImage, error) {
	pool, to, err := n.route(ctx, a)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		return nil, n.redirect(to)
	}
	img, err := pool.SwapOut(ctx, a, slot)
	return img, n.wrapOwn(err)
}

// SwapIn implements server.Backend.
func (n *Node) SwapIn(ctx context.Context, img *core.PageImage, a layout.Addr, slot int) error {
	pool, to, err := n.route(ctx, a)
	if err != nil {
		return err
	}
	if pool == nil {
		return n.redirect(to)
	}
	return n.wrapOwn(pool.SwapIn(ctx, img, a, slot))
}

// Verify sweeps the local pool and every adopted pool.
func (n *Node) Verify(ctx context.Context) error {
	if err := n.cfg.Pool.Verify(ctx); err != nil {
		return err
	}
	n.mu.Lock()
	prs := make([]*promotedRange, 0, len(n.promoted))
	for _, pr := range n.promoted {
		prs = append(prs, pr)
	}
	n.mu.Unlock()
	for _, pr := range prs {
		if err := pr.pool.Verify(ctx); err != nil {
			return fmt.Errorf("promoted range of %s: %w", pr.owner, err)
		}
	}
	return nil
}

// Roots returns the local pool's Merkle roots (adopted ranges attest via
// their own stores).
func (n *Node) Roots() [][]byte { return n.cfg.Pool.Roots() }

// Stats reports the local pool's stats.
func (n *Node) Stats() shard.ServiceStats { return n.cfg.Pool.Stats() }

// Cordon implements server.Backend against the local pool.
func (n *Node) Cordon(i int) error { return n.cfg.Pool.Cordon(i) }

// Uncordon implements server.Backend against the local pool.
func (n *Node) Uncordon(i int) error { return n.cfg.Pool.Uncordon(i) }

// ShardStates implements server.Backend against the local pool.
func (n *Node) ShardStates() []shard.ShardState { return n.cfg.Pool.ShardStates() }

// ShardFault implements server.Backend against the local pool.
func (n *Node) ShardFault(i int) (shard.FaultKind, error) { return n.cfg.Pool.ShardFault(i) }

// Close tears the node down: replication stops, standbys are discarded,
// promoted stores are closed durably, and the local pool closes last.
func (n *Node) Close() error {
	n.stop(true)
	return n.cfg.Pool.Close()
}

// Halt stops the node abruptly — replication, receiver and monitor die,
// but pools are left unclosed and nothing is checkpointed. Crash
// simulation for tests; the data directory is what a SIGKILL leaves.
func (n *Node) Halt() { n.stop(false) }

func (n *Node) stop(graceful bool) {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.cfg.Store.SetSegmentSink(nil)
		n.cfg.Store.SetRotateHook(nil)
		n.mu.Lock()
		ship := n.ship
		shps := make([]*shipper, 0, len(n.shippers))
		for _, s := range n.shippers {
			shps = append(shps, s)
		}
		n.mu.Unlock()
		if ship != nil {
			ship.close()
		}
		for _, s := range shps {
			s.close()
		}
		if n.cfg.ReplListener != nil {
			n.cfg.ReplListener.Close()
		}
		n.replConnMu.Lock()
		for c := range n.replConns {
			c.Close()
		}
		n.replConnMu.Unlock()
		n.wg.Wait()
		n.fwd.close()
		if !graceful {
			return
		}
		// Drain depositions the reaper never got to.
	drain:
		for {
			select {
			case it := <-n.reap:
				n.reapOne(it)
			default:
				break drain
			}
		}
		n.mu.Lock()
		sbs, prs := n.standbys, n.promoted
		n.standbys, n.promoted = map[string]*standby{}, map[string]*promotedRange{}
		n.mu.Unlock()
		for _, sb := range sbs {
			sb.pool.Close()
		}
		for _, pr := range prs {
			if err := pr.store.Checkpoint(); err != nil {
				n.logf("cluster: checkpoint promoted range of %s: %v", pr.owner, err)
			}
			pr.pool.Close()
			if err := pr.store.Close(); err != nil {
				n.logf("cluster: close promoted range of %s: %v", pr.owner, err)
			}
		}
	})
}

// promotedDir names the fresh store directory for a promoted range; the
// fencing epoch in the name keeps successive promotions of the same
// owner from colliding.
func (n *Node) promotedDir(owner string, fence uint64) string {
	return filepath.Join(n.cfg.DataDir, fmt.Sprintf("promoted-%s-f%d", owner, fence))
}
