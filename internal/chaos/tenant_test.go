package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// nextTrace issues the next harness trace ID for a tenant request.
func (h *harness) nextTrace() uint64 {
	h.traceSeq++
	return h.traceSeq
}

// tenantService builds a tenant layer over a private 2-shard AISE+BMT
// pool. Tenant scenarios cannot share h.Pool: the vm frame allocator
// claims pool pages for tenant address spaces, and those frames would
// collide with the durable model's addresses.
func (h *harness) tenantService(budget int) (*tenant.Service, *shard.Pool, error) {
	pool, err := shard.New(shard.Config{
		Shards: 2,
		Core: core.Config{
			DataBytes:  2 * 16 * layout.PageSize,
			Key:        harnessKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  16,
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: tenant pool: %w", err)
	}
	return tenant.New(tenant.Config{Pool: pool, ResidentPages: budget}), pool, nil
}

// tenantVal draws a fresh random page payload from the schedule rng.
func (h *harness) tenantVal() []byte {
	val := make([]byte, valLen)
	h.rng.Read(val)
	return val
}

// tenantWrite writes val at the start of a tenant page and, once it is
// acknowledged, records it in the tenant's history m (when non-nil).
func (h *harness) tenantWrite(svc *tenant.Service, id uint32, m *history.Model[int], page int, val []byte) error {
	ctx, cancel := ctx10()
	defer cancel()
	if err := svc.Write(ctx, id, uint64(page)*layout.PageSize, val, h.nextTrace()); err != nil {
		h.stats.failedWrites++
		return fmt.Errorf("chaos: tenant %d page %d write: %w", id, page, err)
	}
	h.stats.ackedWrites++
	if m != nil {
		m.Ack(page, val)
	}
	return nil
}

// tenantRead reads one tenant page's value.
func (h *harness) tenantRead(svc *tenant.Service, id uint32, page int) ([]byte, error) {
	ctx, cancel := ctx10()
	defer cancel()
	h.stats.modelReads++
	return svc.Read(ctx, id, uint64(page)*layout.PageSize, valLen, h.nextTrace())
}

// tenantVerify reads back every page tenant id wrote and checks it
// against the tenant's history.
func (h *harness) tenantVerify(svc *tenant.Service, id uint32, m *history.Model[int]) error {
	if _, err := m.Verify(func(page int) ([]byte, error) { return h.tenantRead(svc, id, page) }); err != nil {
		return fmt.Errorf("chaos: tenant %d: %w", id, err)
	}
	return nil
}

// runTenantSwapTamper swaps a tenant page out to the attacker-owned
// disk, flips one counter-block bit in the on-disk image, and requires
// the Page Root Directory to refuse the swap-in — before any data block
// decrypts — while the tenant's other pages and a bystander tenant keep
// serving.
func (h *harness) runTenantSwapTamper() error {
	svc, pool, err := h.tenantService(0)
	if err != nil {
		return err
	}
	defer pool.Close()
	ctx, cancel := ctx10()
	defer cancel()

	const npages = 4
	victim, err := svc.Create(ctx, npages, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	bystander, err := svc.Create(ctx, 2, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	h.stats.tenantsCreated += 2
	vm, bm := history.New[int](), history.New[int]()
	for p := 0; p < npages; p++ {
		if err := h.tenantWrite(svc, victim, vm, p, h.tenantVal()); err != nil {
			return err
		}
	}
	if err := h.tenantWrite(svc, bystander, bm, 0, h.tenantVal()); err != nil {
		return err
	}

	// Swap one page out and corrupt its counter block on disk. The leaf
	// MAC stored in the PRD covers the whole block, so any bit works.
	page := h.rng.Intn(npages)
	vaddr := uint64(page) * layout.PageSize
	if err := svc.ForceSwapOut(ctx, victim, vaddr); err != nil {
		return fmt.Errorf("chaos: force swap-out: %w", err)
	}
	h.stats.tenantSwaps++
	slot := svc.SwapSlotOf(victim, vaddr)
	if slot < 0 {
		return fmt.Errorf("chaos: page %d not in swap after forced swap-out", page)
	}
	img := svc.Swap().Image(slot).Clone()
	img.Counters[h.rng.Intn(len(img.Counters))] ^= 1 << h.rng.Intn(8)
	svc.Swap().Tamper(slot, img)
	h.stats.tampersInjected++

	buf, err := svc.Read(ctx, victim, vaddr, valLen, h.nextTrace())
	if err == nil {
		return fmt.Errorf("chaos: TAMPER SERVED: tampered swap image for tenant page %d returned %x", page, buf)
	}
	if !errors.Is(err, core.ErrTampered) {
		return fmt.Errorf("chaos: tampered swap-in failed with unexpected error: %w", err)
	}
	h.stats.tampersDetected++
	if st := svc.Stats(); st.Cums.TamperRefused == 0 {
		return fmt.Errorf("chaos: PRD refusal not visible in tenant counters: %+v", st.Cums)
	}

	// Containment: the tenant's resident pages and the bystander tenant
	// still serve their acknowledged values.
	for p := 0; p < npages; p++ {
		if p == page {
			continue
		}
		got, err := h.tenantRead(svc, victim, p)
		if err == nil {
			err = vm.Check(p, got)
		}
		if err != nil {
			return fmt.Errorf("chaos: tenant %d page %d: %w", victim, p, err)
		}
	}
	if err := h.tenantVerify(svc, bystander, bm); err != nil {
		return err
	}
	for _, id := range []uint32{victim, bystander} {
		if err := svc.Destroy(ctx, id, h.nextTrace()); err != nil {
			return fmt.Errorf("chaos: tenant destroy: %w", err)
		}
	}
	return nil
}

// runTenantForkKill runs a copy-on-write fork storm and destroys the
// parent in the middle of it: every surviving descendant must keep its
// own diverged view (fork-time snapshot plus its private writes), and
// tearing everything down must return every frame and swap slot.
func (h *harness) runTenantForkKill() error {
	svc, pool, err := h.tenantService(0)
	if err != nil {
		return err
	}
	defer pool.Close()
	ctx, cancel := ctx10()
	defer cancel()

	const npages = 6
	parent, err := svc.Create(ctx, npages, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	h.stats.tenantsCreated++
	views := map[uint32]*history.Model[int]{parent: history.New[int]()}
	for p := 0; p < npages; p++ {
		if err := h.tenantWrite(svc, parent, views[parent], p, h.tenantVal()); err != nil {
			return err
		}
	}

	// The storm: fork a live tenant, diverge one page in the child, and
	// kill the parent mid-storm. Later forks clone a surviving child.
	live := []uint32{parent}
	const forks = 4
	for i := 0; i < forks; i++ {
		src := live[h.rng.Intn(len(live))]
		child, err := svc.Fork(ctx, src, h.nextTrace())
		if err != nil {
			return fmt.Errorf("chaos: fork of %d: %w", src, err)
		}
		h.stats.tenantForks++
		views[child] = views[src].Clone()
		live = append(live, child)
		diverge := h.rng.Intn(npages)
		if err := h.tenantWrite(svc, child, views[child], diverge, h.tenantVal()); err != nil {
			return err
		}

		if i == 1 {
			// Mid-storm kill: the parent dies while children still share
			// its COW frames.
			if err := svc.Destroy(ctx, parent, h.nextTrace()); err != nil {
				return fmt.Errorf("chaos: mid-storm destroy of parent: %w", err)
			}
			delete(views, parent)
			live = live[1:]
		}
	}

	// Every survivor holds exactly its own view.
	for _, id := range live {
		if err := h.tenantVerify(svc, id, views[id]); err != nil {
			return err
		}
	}

	// Teardown in random order must reclaim everything.
	h.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		if err := svc.Destroy(ctx, id, h.nextTrace()); err != nil {
			return fmt.Errorf("chaos: teardown destroy of %d: %w", id, err)
		}
	}
	if st := svc.Stats(); st.Live != 0 || st.ResidentPages != 0 || st.SwappedPages != 0 {
		return fmt.Errorf("chaos: FRAME LEAK after fork-kill teardown: %+v", st)
	}
	return nil
}

// durableTenantStack is one "daemon" of the restart scenario: a durable
// store with the tenant journal enabled, its recovered pool, and the
// tenant layer rebuilt from the journal — the exact wiring cmd/secmemd
// uses under -tenant-durable.
type durableTenantStack struct {
	store *persist.Store
	pool  *shard.Pool
	svc   *tenant.Service
}

// openDurableTenants boots (or recovers) a tenant-durable stack in dir.
func (h *harness) openDurableTenants(dir string) (*durableTenantStack, error) {
	st, err := persist.Open(persist.Options{Dir: dir, Key: harnessKey, Fsync: persist.FsyncAlways, Logf: h.logf})
	if err != nil {
		return nil, fmt.Errorf("chaos: tenant store: %w", err)
	}
	st.EnableAux()
	pool, _, err := st.Recover(shard.Config{
		Shards: 2,
		Core: core.Config{
			DataBytes:  2 * 16 * layout.PageSize,
			Key:        harnessKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  16,
		},
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("chaos: tenant store recover: %w", err)
	}
	svc, err := tenant.Recover(tenant.Config{Pool: pool, Journal: st}, st.TakeAuxRecovery())
	if err != nil {
		pool.Close()
		st.Close()
		return nil, fmt.Errorf("chaos: tenant layer recover: %w", err)
	}
	st.SetAuxSource(svc.FreezeOps, svc.ThawOps, svc.SnapshotState)
	return &durableTenantStack{store: st, pool: pool, svc: svc}, nil
}

// crash abandons the stack the way a power cut leaves it: the pool's
// workers stop, but the store is never closed and nothing is flushed or
// checkpointed — recovery must come entirely from what each ack synced.
func (s *durableTenantStack) crash() { s.pool.Close() }

// runTenantRestartRecover power-cycles a tenant-durable daemon in the
// middle of tenant churn. A private durable store journals every tenant
// mutation; the stack is crashed with no shutdown of any kind; a fresh
// stack recovered from the same directory must serve every acknowledged
// tenant byte bit-exact, keep a cross-tenant shared mapping aliased, and
// refuse a destroyed tenant. A second crash is followed by a flipped
// byte in the tenant journal: recovery must refuse fail-closed, and
// succeed again once the byte is restored.
func (h *harness) runTenantRestartRecover() error {
	dir := filepath.Join(h.dir, fmt.Sprintf("tenant-rr-%d", h.nextTrace()))
	ctx, cancel := ctx10()
	defer cancel()

	gen1, err := h.openDurableTenants(dir)
	if err != nil {
		return err
	}
	svc := gen1.svc

	// Generation 1: create/write/fork/share/swap/destroy churn, every ack
	// recorded in its tenant's history.
	const npages = 3
	shadow := map[uint32]*history.Model[int]{}
	a, err := svc.Create(ctx, npages, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	shadow[a] = history.New[int]()
	for p := 0; p < npages; p++ {
		if err := h.tenantWrite(svc, a, shadow[a], p, h.tenantVal()); err != nil {
			return err
		}
	}
	b, err := svc.Fork(ctx, a, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant fork: %w", err)
	}
	h.stats.tenantForks++
	shadow[b] = shadow[a].Clone()
	if err := h.tenantWrite(svc, b, shadow[b], 1, h.tenantVal()); err != nil {
		return err
	}
	c, err := svc.Create(ctx, 2, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	shadow[c] = history.New[int]()
	if err := h.tenantWrite(svc, c, shadow[c], 0, h.tenantVal()); err != nil {
		return err
	}
	h.stats.tenantsCreated += 3
	// Share a's page 0 into c at page 4 (growing c), then write the page
	// through c: both sides must read the same bytes after recovery.
	const sharedPage = 4
	if err := svc.Map(ctx, a, 0, c, sharedPage*layout.PageSize, h.nextTrace()); err != nil {
		return fmt.Errorf("chaos: tenant map: %w", err)
	}
	sharedVal := h.tenantVal()
	if err := h.tenantWrite(svc, c, shadow[c], sharedPage, sharedVal); err != nil {
		return err
	}
	shadow[a].Ack(0, sharedVal) // the alias
	// A page parked in swap at crash time, and a tenant destroyed before
	// it — both journal record classes must recover.
	if err := svc.ForceSwapOut(ctx, a, 2*layout.PageSize); err != nil {
		return fmt.Errorf("chaos: force swap-out: %w", err)
	}
	h.stats.tenantSwaps++
	gone, err := svc.Create(ctx, 1, h.nextTrace())
	if err != nil {
		return fmt.Errorf("chaos: tenant create: %w", err)
	}
	h.stats.tenantsCreated++
	if err := h.tenantWrite(svc, gone, nil, 0, h.tenantVal()); err != nil {
		return err
	}
	if err := svc.Destroy(ctx, gone, h.nextTrace()); err != nil {
		return fmt.Errorf("chaos: tenant destroy: %w", err)
	}

	gen1.crash()

	// Restart 1: every acknowledged byte, the COW divergence and the
	// shared-page alias come back; the destroyed tenant stays gone.
	gen2, err := h.openDurableTenants(dir)
	if err != nil {
		return fmt.Errorf("chaos: ACKED-WRITE LOSS: restart after tenant churn: %w", err)
	}
	svc = gen2.svc
	for id, m := range shadow {
		if err := h.tenantVerify(svc, id, m); err != nil {
			return fmt.Errorf("chaos: restart after tenant churn: %w", err)
		}
	}
	if _, err := svc.Read(ctx, gone, 0, valLen, h.nextTrace()); err == nil {
		return fmt.Errorf("chaos: destroyed tenant %d served after restart", gone)
	}
	st := svc.Stats()
	if st.Live != 3 || st.Cums.Forked == 0 || st.Cums.MapShared == 0 {
		return fmt.Errorf("chaos: recovered tenant stats wrong: %+v", st)
	}
	// The alias is structural, not just byte-identical: a fresh write
	// through a must surface through c.
	alias := h.tenantVal()
	if err := h.tenantWrite(svc, a, shadow[a], 0, alias); err != nil {
		return err
	}
	shadow[c].Ack(sharedPage, alias)
	if err := h.tenantVerify(svc, c, shadow[c]); err != nil {
		return err
	}

	gen2.crash()

	// A flipped byte in the tenant journal must refuse recovery closed.
	walPath := filepath.Join(dir, "wal-aux.log")
	raw, err := os.ReadFile(walPath)
	if err != nil || len(raw) == 0 {
		return fmt.Errorf("chaos: tenant journal unreadable at crash (%d bytes): %v", len(raw), err)
	}
	flip := len(raw) - 1 - h.rng.Intn(len(raw)/2)
	bit := byte(1) << h.rng.Intn(8)
	raw[flip] ^= bit
	if err := os.WriteFile(walPath, raw, 0o600); err != nil {
		return err
	}
	h.stats.tampersInjected++
	if _, err := h.openDurableTenants(dir); err == nil {
		return fmt.Errorf("chaos: TAMPER SERVED: tampered tenant journal recovered")
	} else if !errors.Is(err, persist.ErrTenantTampered) {
		return fmt.Errorf("chaos: tampered tenant journal refused with unexpected error: %w", err)
	}
	h.stats.tampersDetected++
	raw[flip] ^= bit
	if err := os.WriteFile(walPath, raw, 0o600); err != nil {
		return err
	}
	gen3, err := h.openDurableTenants(dir)
	if err != nil {
		return fmt.Errorf("chaos: untampered journal refused: %w", err)
	}
	svc = gen3.svc
	for id, m := range shadow {
		if err := h.tenantVerify(svc, id, m); err != nil {
			return err
		}
	}
	for _, id := range []uint32{a, b, c} {
		if err := svc.Destroy(ctx, id, h.nextTrace()); err != nil {
			return fmt.Errorf("chaos: teardown destroy of %d: %w", id, err)
		}
	}
	gen3.pool.Close()
	if err := gen3.store.Close(); err != nil {
		return fmt.Errorf("chaos: tenant store close: %w", err)
	}
	return nil
}

// runTenantSwapPressure runs two tenants whose combined working set is
// more than triple the resident budget, so the pressure controller swaps
// continuously, then sweeps every page back against the shadow of its
// last acknowledged write. Zero acked-write loss is the invariant.
func (h *harness) runTenantSwapPressure() error {
	const budget, npages, generations = 6, 10, 3
	svc, pool, err := h.tenantService(budget)
	if err != nil {
		return err
	}
	defer pool.Close()
	ctx, cancel := ctx10()
	defer cancel()

	ids := make([]uint32, 2)
	shadow := map[uint32]*history.Model[int]{}
	for i := range ids {
		if ids[i], err = svc.Create(ctx, npages, h.nextTrace()); err != nil {
			return fmt.Errorf("chaos: tenant create: %w", err)
		}
		h.stats.tenantsCreated++
		shadow[ids[i]] = history.New[int]()
	}
	for gen := 0; gen < generations; gen++ {
		for _, id := range ids {
			for p := 0; p < npages; p++ {
				if err := h.tenantWrite(svc, id, shadow[id], p, h.tenantVal()); err != nil {
					return err
				}
			}
		}
	}

	st := svc.Stats()
	if st.ResidentPages > budget {
		return fmt.Errorf("chaos: resident budget breached: %d pages resident, budget %d", st.ResidentPages, budget)
	}
	if st.SwappedPages == 0 || st.VM.SwapOuts == 0 {
		return fmt.Errorf("chaos: pressure never swapped (stats %+v)", st)
	}
	h.stats.tenantSwaps += int(st.VM.SwapOuts)

	// The sweep faults every page back in; each must carry the last
	// value its write acknowledged.
	for _, id := range ids {
		if err := h.tenantVerify(svc, id, shadow[id]); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if err := svc.Destroy(ctx, id, h.nextTrace()); err != nil {
			return fmt.Errorf("chaos: tenant destroy: %w", err)
		}
	}
	return nil
}
