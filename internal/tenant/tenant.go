// Package tenant is the multi-tenant address-space layer between the wire
// protocol and the shard pool: each tenant is one LPID-keyed namespace —
// a vm.Process with its own page table and TLB tags — managed by a single
// vm.Manager running over the sharded secure memory. Tenants are created,
// destroyed and forked over the wire; their reads and writes fault pages
// in through the page table, and a global memory-pressure controller
// swaps cold pages out through the extended tree's Page Root Directory
// whenever the resident set exceeds the configured budget, so swapped
// pages live on the untrusted swap device and tampering them is detected
// (and refused) at swap-in.
//
// This is the paper's OS-friendliness claim surfaced as a service: AISE
// seeds are keyed by LPID, not physical address, so pages move between
// frames and the swap device without re-encryption; fork marks pages
// copy-on-write, and the first write to a shared page re-encrypts the
// private copy under a fresh LPID through the controller.
//
// Concurrency model: operations on one tenant serialize on that tenant's
// lock (reads and writes share it), so independent tenants overlap their
// fault-ins, COW breaks and data transfers; the vm.Manager's own mutex
// covers only the bookkeeping inside each step, and the per-page data
// transfers run outside it against pinned frames. Structural operations
// (destroy, fork, migrate, forced swap-out) take the tenant lock
// exclusively so they cannot pull frames out from under that tenant's
// in-flight I/O. A service-wide freeze (FreezeOps) quiesces every
// operation for checkpointing.
//
// Durability: with a journal configured, every structural mutation is
// appended to the persist layer's auxiliary journal (see the journal
// subpackage) and bound to the pool's WALs before the operation is
// acknowledged, so a SIGKILL at any instant loses no acknowledged tenant
// state (Config.Journal says what a power cut keeps).
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant/journal"
	"aisebmt/internal/vm"
)

// MaxPages caps one tenant's address space (the vm's 32-bit VA space).
const MaxPages = 1 << 20

// traceKey carries the wire request's TraceID through the vm layer into
// the pool's per-stage spans without widening every vm signature.
type traceKey struct{}

func withTrace(ctx context.Context, trace uint64) context.Context {
	if trace == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, trace)
}

func traceOf(ctx context.Context) uint64 {
	v, _ := ctx.Value(traceKey{}).(uint64)
	return v
}

// poolBacking adapts the shard pool to vm.Backing. It is stateless: the
// request context flows through every vm operation, and the TraceID rides
// in it, so concurrent tenants' pool operations each carry their own
// caller's deadline and show up as per-stage spans in /tracez.
type poolBacking struct{ pool *shard.Pool }

func (b poolBacking) Read(ctx context.Context, a layout.Addr, dst []byte, meta core.Meta) error {
	meta.Trace = traceOf(ctx)
	return b.pool.Read(ctx, a, dst, meta)
}

func (b poolBacking) Write(ctx context.Context, a layout.Addr, src []byte, meta core.Meta) error {
	meta.Trace = traceOf(ctx)
	return b.pool.Write(ctx, a, src, meta)
}

func (b poolBacking) SwapOut(ctx context.Context, a layout.Addr, slot int) (*core.PageImage, error) {
	return b.pool.SwapOut(ctx, a, slot)
}

func (b poolBacking) SwapIn(ctx context.Context, img *core.PageImage, a layout.Addr, slot int) error {
	return b.pool.SwapIn(ctx, img, a, slot)
}

func (b poolBacking) Move(ctx context.Context, oldPage, newPage layout.Addr) error {
	return b.pool.MovePage(ctx, oldPage, newPage, core.Meta{Trace: traceOf(ctx)})
}

func (b poolBacking) DataBytes() uint64 { return b.pool.DataBytes() }

// SwapGroups: page-interleaved sharding means frame f belongs to shard
// f%Shards, and a swapped-out page must return to the shard whose Page
// Root Directory holds its root.
func (b poolBacking) SwapGroups() int { return b.pool.Config().Shards }

// Config parameterizes a Service.
type Config struct {
	// Pool is the sharded secure memory every tenant lives in.
	Pool *shard.Pool
	// SlotsPerShard bounds each shard's slice of the swap device; it must
	// not exceed the pool's per-shard Page Root Directory capacity
	// (core.Config.SwapSlots). 0 uses the pool's configured SwapSlots.
	SlotsPerShard int
	// ResidentPages is the global memory-pressure budget: after any
	// operation that may allocate frames, cold pages are swapped out until
	// at most this many remain resident. 0 disables the controller (pages
	// still swap when physical frames run out).
	ResidentPages int
	// Journal, when non-nil, makes tenants crash-recoverable: structural
	// mutations are journaled through it and bound to the pool's WALs
	// before every acknowledgement, under the store's fsync policy
	// (*persist.Store implements it; see persist.Store.SyncAux). Tenant
	// state then gets the pool's guarantee: under "always" no acknowledged
	// state is lost, under "batch" and "off" it survives a process crash
	// and a power cut rolls it back to a consistent prefix.
	Journal journal.Store
	// Obs, when non-nil, registers the secmemd_tenant_* instrument family.
	Obs *obs.Service
}

// cums are monotonic Service counters, separate from vm.Stats so a scrape
// can tell service-level events (tenant churn, pressure evictions,
// refused tampered swap-ins) from substrate events (faults, COW breaks).
type cums struct {
	Created           uint64 `json:"created"`
	Destroyed         uint64 `json:"destroyed"`
	Forked            uint64 `json:"forked"`
	MapShared         uint64 `json:"map_shared"`
	PressureEvictions uint64 `json:"pressure_evictions"`
	EvictFailures     uint64 `json:"evict_failures"`
	TamperRefused     uint64 `json:"tamper_refused"`
}

// Service multiplexes tenants over one vm.Manager.
type Service struct {
	mgr    *vm.Manager
	budget int
	log    *journal.Log // nil when not durable

	// opMu is the service-wide quiesce barrier: every operation holds it
	// shared for its full duration; FreezeOps takes it exclusively so a
	// checkpoint serializes against all in-flight operations.
	opMu sync.RWMutex

	// regMu guards the tenant table only; it is never held across pool
	// I/O and never acquired while holding a tenant lock.
	regMu   sync.RWMutex
	tenants map[uint32]*tenantState

	cmu sync.Mutex
	c   cums
}

// tenantState is one tenant plus its operation lock: reads and writes
// share it, structural operations hold it exclusively.
type tenantState struct {
	mu     sync.RWMutex
	proc   *vm.Process
	npages int
	dead   bool
}

// New builds a tenant service over a pool. The pool's scheme must support
// swapping (AISE + Bonsai tree + SwapSlots > 0) for the pressure
// controller and fault-in paths to work; without it tenants are still
// served until the first operation that needs the swap device.
func New(cfg Config) *Service {
	b := poolBacking{pool: cfg.Pool}
	s := newService(cfg, vm.NewManagerOver(b, slotsFor(cfg)))
	return s
}

// Recover rebuilds a tenant service from the persistence layer's
// auxiliary recovery: the sealed tenant checkpoint plus the journal
// suffix, reconciled against the replayed pool history. aux may be nil
// (fresh data directory). Refuses tampered tenant state with
// persist.ErrTenantTampered.
func Recover(cfg Config, aux *persist.AuxRecovery) (*Service, error) {
	b := poolBacking{pool: cfg.Pool}
	mgr, table, counters, err := journal.Restore(b, slotsFor(cfg), aux)
	if err != nil {
		return nil, err
	}
	s := newService(cfg, mgr)
	s.c = cums{
		Created:           counters.Created,
		Destroyed:         counters.Destroyed,
		Forked:            counters.Forked,
		MapShared:         counters.MapShared,
		PressureEvictions: counters.PressureEvictions,
		EvictFailures:     counters.EvictFailures,
		TamperRefused:     counters.TamperRefused,
	}
	for id, npages := range table {
		s.tenants[id] = &tenantState{proc: mgr.Process(vm.PID(id)), npages: npages}
	}
	return s, nil
}

func slotsFor(cfg Config) int {
	if cfg.SlotsPerShard > 0 {
		return cfg.SlotsPerShard
	}
	return cfg.Pool.Config().Core.SwapSlots
}

func newService(cfg Config, mgr *vm.Manager) *Service {
	s := &Service{
		mgr:     mgr,
		budget:  cfg.ResidentPages,
		tenants: make(map[uint32]*tenantState),
	}
	if cfg.Journal != nil {
		s.log = journal.NewLog(cfg.Journal)
		mgr.SetSink(s.log)
	}
	if cfg.Obs != nil {
		s.register(cfg.Obs, cfg.Pool)
	}
	return s
}

// ErrUnknownTenant reports an operation against a tenant ID that does not
// exist (never created, or already destroyed).
var ErrUnknownTenant = errors.New("tenant: unknown tenant")

// Journaled reports whether tenant address spaces are journaled. The
// server then refuses the raw page-level swap ops: they move pages behind
// the journal's back, and recovery could not reconcile them.
func (s *Service) Journaled() bool { return s.log != nil }

// FreezeOps quiesces the service: it returns once no operation is in
// flight and blocks new ones until ThawOps. The persistence layer wraps
// checkpoints in this freeze so the sealed tenant section is cut against
// a consistent instant.
func (s *Service) FreezeOps() { s.opMu.Lock() }

// ThawOps releases a FreezeOps freeze.
func (s *Service) ThawOps() { s.opMu.Unlock() }

// SnapshotState serializes the full tenant layer for the checkpoint
// section. Call only between FreezeOps and ThawOps.
func (s *Service) SnapshotState() ([]byte, error) {
	table := make(map[uint32]int, len(s.tenants))
	for id, t := range s.tenants {
		table[id] = t.npages
	}
	s.cmu.Lock()
	c := journal.Counters{
		Created:           s.c.Created,
		Destroyed:         s.c.Destroyed,
		Forked:            s.c.Forked,
		MapShared:         s.c.MapShared,
		PressureEvictions: s.c.PressureEvictions,
		EvictFailures:     s.c.EvictFailures,
		TamperRefused:     s.c.TamperRefused,
	}
	s.cmu.Unlock()
	return journal.EncodeState(s.mgr, table, c)
}

// lookup resolves a live tenant.
func (s *Service) lookup(id uint32) (*tenantState, error) {
	s.regMu.RLock()
	t, ok := s.tenants[id]
	s.regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	return t, nil
}

// enforce trims the resident set to the budget by swapping out the
// coldest (FIFO-oldest) frames. Safe to run concurrently; evictions are
// serialized by the vm manager and skip pinned frames.
func (s *Service) enforce(ctx context.Context) {
	if s.budget <= 0 {
		return
	}
	for s.mgr.ResidentPages() > s.budget {
		if err := s.mgr.EvictOneCtx(ctx); err != nil {
			// Nothing evictable right now (pinned frames or a full swap
			// device); the next allocating operation re-applies pressure.
			s.bump(func(c *cums) { c.EvictFailures++ })
			return
		}
		s.bump(func(c *cums) { c.PressureEvictions++ })
	}
}

func (s *Service) bump(f func(*cums)) {
	s.cmu.Lock()
	f(&s.c)
	s.cmu.Unlock()
}

// note classifies an operation error: a tampered swap image surfacing
// through a fault-in is the PRD integrity path refusing the page.
func (s *Service) note(err error) {
	if err != nil && errors.Is(err, core.ErrTampered) {
		s.bump(func(c *cums) { c.TamperRefused++ })
	}
}

// ack finishes an operation: with a journal configured, any structural
// records it (or the pressure controller) emitted are synced into the
// journal before success is reported. This covers the subtle cases too — a
// read that faulted pages in, a write that broke copy-on-write — because
// an acknowledged write landing in a COW-split frame must survive a crash.
// A write (wrote) syncs even when it emitted no record: under the relaxed
// fsync policies recovery replays the pool only as far as the journal's
// last barrier, so the write's pool commit needs one behind it.
func (s *Service) ack(err error, wrote bool) error {
	s.note(err)
	if s.log != nil && (wrote || s.log.Dirty()) {
		if serr := s.log.Sync(); serr != nil && err == nil {
			return serr
		}
	}
	return err
}

// Create allocates a new tenant with npages of zeroed memory mapped at
// virtual address 0 and returns its ID.
func (s *Service) Create(ctx context.Context, npages int, trace uint64) (uint32, error) {
	if npages <= 0 || npages > MaxPages {
		return 0, fmt.Errorf("tenant: npages must be in [1, %d], got %d", MaxPages, npages)
	}
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	p := s.mgr.NewProcess()
	if err := s.mgr.MapCtx(ctx, p, 0, npages); err != nil {
		s.mgr.Exit(p) // release whatever was mapped before the failure
		return 0, s.ack(err, false)
	}
	id := uint32(p.PID)
	// Journal before registering: once the tenant is reachable, a
	// concurrent Destroy could append its record first and the replayed
	// history would destroy a tenant it never saw created.
	if s.log != nil {
		s.log.TenantCreated(id, npages)
	}
	s.regMu.Lock()
	s.tenants[id] = &tenantState{proc: p, npages: npages}
	s.regMu.Unlock()
	s.bump(func(c *cums) { c.Created++ })
	s.enforce(ctx)
	if err := s.ack(nil, false); err != nil {
		return 0, err
	}
	return id, nil
}

// Destroy tears a tenant down, releasing its frames and swap slots.
func (s *Service) Destroy(ctx context.Context, id uint32, trace uint64) error {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := s.mgr.Exit(t.proc); err != nil {
		return s.ack(err, false)
	}
	t.dead = true
	s.regMu.Lock()
	delete(s.tenants, id)
	s.regMu.Unlock()
	if s.log != nil {
		s.log.TenantDestroyed(id)
	}
	s.bump(func(c *cums) { c.Destroyed++ })
	return s.ack(nil, false)
}

// Fork clones a tenant copy-on-write and returns the child's ID: both
// address spaces share frames until either side writes, and the first
// write re-encrypts the private copy under a fresh LPID through the
// controller (the paper's §4.2 fork optimization). The parent is held
// exclusively for the instant of the clone so no write can split a page
// half-way through the table copy.
func (s *Service) Fork(ctx context.Context, id uint32, trace uint64) (uint32, error) {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return 0, fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	child := s.mgr.Fork(t.proc)
	npages := t.npages
	cid := uint32(child.PID)
	// Journal while still holding the parent: its TenantForked record must
	// land before any TenantDestroyed the parent could journal next.
	if s.log != nil {
		s.log.TenantForked(id, cid)
	}
	t.mu.Unlock()
	s.regMu.Lock()
	s.tenants[cid] = &tenantState{proc: child, npages: npages}
	s.regMu.Unlock()
	s.bump(func(c *cums) { c.Forked++ })
	s.enforce(ctx)
	if err := s.ack(nil, false); err != nil {
		return 0, err
	}
	return cid, nil
}

// checkRange bounds an access against the tenant's mapped region.
// Callers hold t.mu (shared or exclusive).
func (t *tenantState) checkRange(vaddr uint64, n int) error {
	limit := uint64(t.npages) * layout.PageSize
	if n < 0 || vaddr >= limit || uint64(n) > limit-vaddr {
		return fmt.Errorf("tenant: access [%#x, %#x) outside the %d-page address space", vaddr, vaddr+uint64(n), t.npages)
	}
	return nil
}

// Read copies n bytes out of a tenant's address space, faulting
// non-resident pages in through the page table. Reads and writes on the
// same tenant run concurrently (the vm layer orders overlapping access).
func (s *Service) Read(ctx context.Context, id uint32, vaddr uint64, n int, trace uint64) ([]byte, error) {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	if t.dead {
		t.mu.RUnlock()
		return nil, fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := t.checkRange(vaddr, n); err != nil {
		t.mu.RUnlock()
		return nil, err
	}
	buf := make([]byte, n)
	err = s.mgr.ReadCtx(ctx, t.proc, vaddr, buf)
	t.mu.RUnlock()
	s.enforce(ctx)
	if err := s.ack(err, false); err != nil {
		return nil, err
	}
	return buf, nil
}

// Write copies data into a tenant's address space, faulting pages in and
// breaking copy-on-write sharing as needed.
func (s *Service) Write(ctx context.Context, id uint32, vaddr uint64, data []byte, trace uint64) error {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return err
	}
	t.mu.RLock()
	if t.dead {
		t.mu.RUnlock()
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := t.checkRange(vaddr, len(data)); err != nil {
		t.mu.RUnlock()
		return err
	}
	err = s.mgr.WriteCtx(ctx, t.proc, vaddr, data)
	t.mu.RUnlock()
	s.enforce(ctx)
	return s.ack(err, true)
}

// Map aliases one page of a source tenant into a destination tenant's
// address space (shared, writable on both sides — the vm MapShared
// primitive over the wire). Mapping beyond the destination's current end
// grows its address space to cover the new page. Both tenants are held
// exclusively, in ID order, so the alias cannot race either side's
// structural operations.
func (s *Service) Map(ctx context.Context, srcID uint32, srcVaddr uint64, dstID uint32, dstVaddr uint64, trace uint64) error {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	src, err := s.lookup(srcID)
	if err != nil {
		return err
	}
	dst := src
	if dstID != srcID {
		if dst, err = s.lookup(dstID); err != nil {
			return err
		}
	}
	// Two tenants lock in ID order; every multi-tenant operation uses the
	// same order, so the pair cannot deadlock.
	first, second := src, dst
	if dstID < srcID {
		first, second = dst, src
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if second != first {
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if src.dead {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, srcID)
	}
	if dst.dead {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, dstID)
	}
	if err := src.checkRange(srcVaddr, 1); err != nil {
		return err
	}
	dvpn := int(dstVaddr / layout.PageSize)
	if dstVaddr%layout.PageSize != 0 || srcVaddr%layout.PageSize != 0 {
		return fmt.Errorf("tenant: shared mappings must be page-aligned")
	}
	if dvpn >= MaxPages {
		return fmt.Errorf("tenant: destination page %d beyond the %d-page limit", dvpn, MaxPages)
	}
	if err := s.mgr.MapSharedCtx(ctx, src.proc, srcVaddr, dst.proc, dstVaddr); err != nil {
		return s.ack(err, false)
	}
	if dvpn+1 > dst.npages {
		dst.npages = dvpn + 1
		if s.log != nil {
			s.log.TenantResized(dstID, dst.npages)
		}
	}
	s.bump(func(c *cums) { c.MapShared++ })
	s.enforce(ctx)
	return s.ack(nil, false)
}

// Migrate moves the frame behind one tenant page to a fresh frame in the
// same shard — the paper's page-migration claim (AISE seeds are address-
// independent, so the move is a copy, not a re-encryption) surfaced as a
// service operation.
func (s *Service) Migrate(ctx context.Context, id uint32, vaddr uint64, trace uint64) error {
	ctx = withTrace(ctx, trace)
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := t.checkRange(vaddr, 1); err != nil {
		return err
	}
	err = s.mgr.MigrateCtx(ctx, t.proc, vaddr)
	return s.ack(err, false)
}

// ForceSwapOut evicts one tenant page to the swap device, regardless of
// pressure — deterministic setup for tests and chaos scenarios.
func (s *Service) ForceSwapOut(ctx context.Context, id uint32, vaddr uint64) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	t, err := s.lookup(id)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	err = s.mgr.ForceSwapOutCtx(ctx, t.proc, vaddr)
	return s.ack(err, false)
}

// SwapSlotOf reports the swap slot holding a non-resident tenant page, or
// -1 — the attack surface a chaos scenario tampers.
func (s *Service) SwapSlotOf(id uint32, vaddr uint64) int {
	t, err := s.lookup(id)
	if err != nil {
		return -1
	}
	return s.mgr.SwapSlotOf(t.proc, vaddr)
}

// Swap exposes the swap device (the untrusted disk an attacker owns).
func (s *Service) Swap() *vm.SwapDevice { return s.mgr.Swap() }

// Stats is the service-level snapshot OpTenantStats serializes.
type Stats struct {
	Live          int      `json:"live"`
	ResidentPages int      `json:"resident_pages"`
	SwappedPages  int      `json:"swapped_pages"`
	Budget        int      `json:"resident_budget"`
	VM            vm.Stats `json:"vm"`
	Cums          cums     `json:"service"`
}

// Stats snapshots the tenant layer.
func (s *Service) Stats() Stats {
	s.regMu.RLock()
	live := len(s.tenants)
	s.regMu.RUnlock()
	s.cmu.Lock()
	c := s.c
	s.cmu.Unlock()
	return Stats{
		Live:          live,
		ResidentPages: s.mgr.ResidentPages(),
		SwappedPages:  s.mgr.SwappedPages(),
		Budget:        s.budget,
		VM:            s.mgr.Stats(),
		Cums:          c,
	}
}

// StatsJSON serializes Stats for OpTenantStats (server.TenantBackend).
func (s *Service) StatsJSON() ([]byte, error) { return json.Marshal(s.Stats()) }

// register wires the secmemd_tenant_* family: live-tenant and page-
// residency gauges plus cumulative fault/swap/COW/churn counters (the hot
// path pays nothing; everything is read at scrape time). Re-encryptions
// are counted by the shard controllers (minor-counter overflows assign a
// fresh LPID and re-encrypt the page); the tenant family sums them
// across shards.
func (s *Service) register(svc *obs.Service, pool *shard.Pool) {
	reg := svc.Reg
	reg.GaugeFunc("secmemd_tenant_live", "Live tenant address spaces.",
		func() float64 { s.regMu.RLock(); defer s.regMu.RUnlock(); return float64(len(s.tenants)) })
	reg.GaugeFunc("secmemd_tenant_resident_pages", "Tenant pages currently in physical frames.",
		func() float64 { return float64(s.mgr.ResidentPages()) })
	reg.GaugeFunc("secmemd_tenant_swapped_pages", "Tenant pages currently on the swap device.",
		func() float64 { return float64(s.mgr.SwappedPages()) })
	for _, c := range []struct {
		name, help string
		get        func() uint64
	}{
		{"secmemd_tenant_page_faults_total", "Tenant accesses that faulted a page in.",
			func() uint64 { return s.mgr.Stats().PageFaults }},
		{"secmemd_tenant_swap_ins_total", "Tenant pages brought back from the swap device.",
			func() uint64 { return s.mgr.Stats().SwapIns }},
		{"secmemd_tenant_swap_outs_total", "Tenant pages pushed to the swap device.",
			func() uint64 { return s.mgr.Stats().SwapOuts }},
		{"secmemd_tenant_cow_breaks_total", "Copy-on-write splits (LPID-fresh page copies through the controller).",
			func() uint64 { return s.mgr.Stats().COWBreaks }},
		{"secmemd_tenant_created_total", "Tenants created.", func() uint64 { return s.cum().Created }},
		{"secmemd_tenant_destroyed_total", "Tenants destroyed.", func() uint64 { return s.cum().Destroyed }},
		{"secmemd_tenant_forked_total", "Tenant forks (copy-on-write clones).", func() uint64 { return s.cum().Forked }},
		{"secmemd_tenant_mapshared_total", "Cross-tenant shared-page mappings established.",
			func() uint64 { return s.cum().MapShared }},
		{"secmemd_tenant_pressure_evictions_total", "Pages evicted by the resident-set budget controller.",
			func() uint64 { return s.cum().PressureEvictions }},
		{"secmemd_tenant_evict_failures_total", "Pressure evictions that found nothing evictable.",
			func() uint64 { return s.cum().EvictFailures }},
		{"secmemd_tenant_tamper_refused_total", "Tenant operations refused because a swapped page image failed PRD verification.",
			func() uint64 { return s.cum().TamperRefused }},
	} {
		get := c.get
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(get()) })
	}
	reg.CounterFunc("secmemd_tenant_reencrypts_total",
		"Minor-counter overflow page re-encryptions across all shard controllers (each assigns a fresh LPID).",
		func() float64 {
			var n uint64
			for _, cs := range pool.CoreStats() {
				n += cs.PageReencrypts
			}
			return float64(n)
		})
}

func (s *Service) cum() cums {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.c
}

// WriteMetrics appends the tenant layer's scrape-time section: the raw
// vm.Stats view of the substrate (faults, swaps, COW breaks, migrations,
// TLB and frame occupancy). The /metrics handler concatenates it after
// the registry exposition and the pool section.
func (s *Service) WriteMetrics(w io.Writer) {
	st := s.mgr.Stats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"secmemd_vm_page_faults_total", "VM page faults (demand fault-ins).", st.PageFaults},
		{"secmemd_vm_swap_ins_total", "VM pages swapped in.", st.SwapIns},
		{"secmemd_vm_swap_outs_total", "VM pages swapped out.", st.SwapOuts},
		{"secmemd_vm_cow_breaks_total", "VM copy-on-write splits.", st.COWBreaks},
		{"secmemd_vm_migrations_total", "VM page migrations (frame moves without re-encryption).", st.Migrations},
		{"secmemd_vm_evictions_total", "VM frame evictions.", st.Evictions},
		{"secmemd_vm_tlb_hits_total", "VM TLB hits.", st.TLBHits},
		{"secmemd_vm_tlb_misses_total", "VM TLB misses.", st.TLBMisses},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
	fmt.Fprintf(w, "# HELP secmemd_vm_frames_in_use Physical frames currently allocated.\n# TYPE secmemd_vm_frames_in_use gauge\nsecmemd_vm_frames_in_use %d\n", st.FramesInUse)
}
