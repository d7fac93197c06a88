// Crash-matrix legs for the tenant journal under FsyncBatch and FsyncOff,
// where acknowledgements bind tenant records to the shard WALs with
// barrier records instead of fsyncs (see aux.go). A power cut under
// independent page-cache writeback must roll tenants back to a state they
// really passed through; a process crash must lose nothing acknowledged;
// a sealed barrier that was edited, deleted or left unsatisfied by a
// rolled-back shard WAL must be refused.
package persist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/tenant"
)

// tenantView is the acknowledged tenant state at one instant: tenant ID →
// mapped page → the page's first 32 bytes.
type tenantView map[uint32]map[uint64][]byte

func (v tenantView) clone() tenantView {
	out := make(tenantView, len(v))
	for id, pages := range v {
		cp := make(map[uint64][]byte, len(pages))
		for vpn, val := range pages {
			cp[vpn] = val
		}
		out[id] = cp
	}
	return out
}

func (v tenantView) equal(o tenantView) bool {
	if len(v) != len(o) {
		return false
	}
	for id, pages := range v {
		op, ok := o[id]
		if !ok || len(op) != len(pages) {
			return false
		}
		for vpn, val := range pages {
			if !bytes.Equal(op[vpn], val) {
				return false
			}
		}
	}
	return true
}

func (v tenantView) String() string {
	ids := make([]uint32, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		vpns := make([]uint64, 0, len(v[id]))
		for vpn := range v[id] {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		fmt.Fprintf(&b, " %d{", id)
		for _, vpn := range vpns {
			fmt.Fprintf(&b, "%d:%x ", vpn, v[id][vpn][:2])
		}
		b.WriteString("}")
	}
	return b.String()
}

// tenantRun drives seeded tenant traffic against one stack and records the
// acknowledged view after every operation, so recovery can be matched
// against the exact states the tenants passed through.
type tenantRun struct {
	t     *testing.T
	ts    *tenantStack
	rng   *rand.Rand
	view  tenantView
	hist  []tenantView
	known map[uint32]bool // every tenant ID ever created: recovery probes them all
	trace uint64
	seq   int
	flush bool // call the batch flusher between operations now and then
}

func (r *tenantRun) tr() uint64 { r.trace++; return r.trace }

// acked records the view after an acknowledged operation.
func (r *tenantRun) acked() {
	r.hist = append(r.hist, r.view.clone())
	if r.flush && r.rng.Intn(6) == 0 {
		if err := r.ts.store.FlushAux(); err != nil {
			r.t.Fatalf("flusher tick: %v", err)
		}
	}
}

func (r *tenantRun) create(npages int) uint32 {
	id, err := r.ts.svc.Create(context.Background(), npages, r.tr())
	if err != nil {
		r.t.Fatalf("create: %v", err)
	}
	r.known[id] = true
	r.view[id] = map[uint64][]byte{}
	for vpn := 0; vpn < npages; vpn++ {
		r.view[id][uint64(vpn)] = make([]byte, 32)
	}
	r.acked()
	return id
}

// write stores a fresh value; alias lists the other (tenant, page) views
// of the same frame.
func (r *tenantRun) write(id uint32, vpn uint64, alias ...[2]uint64) {
	v := tval(80000 + r.seq)
	r.seq++
	if err := r.ts.svc.Write(context.Background(), id, vpn*layout.PageSize, v, r.tr()); err != nil {
		r.t.Fatalf("write tenant %d page %d: %v", id, vpn, err)
	}
	r.view[id][vpn] = v
	for _, a := range alias {
		r.view[uint32(a[0])][a[1]] = v
	}
	r.acked()
}

func (r *tenantRun) fork(id uint32) uint32 {
	child, err := r.ts.svc.Fork(context.Background(), id, r.tr())
	if err != nil {
		r.t.Fatalf("fork %d: %v", id, err)
	}
	r.known[child] = true
	r.view[child] = r.view.clone()[id]
	r.acked()
	return child
}

func (r *tenantRun) destroy(id uint32) {
	if err := r.ts.svc.Destroy(context.Background(), id, r.tr()); err != nil {
		r.t.Fatalf("destroy %d: %v", id, err)
	}
	delete(r.view, id)
	r.acked()
}

func (r *tenantRun) swapOut(id uint32, vpn uint64) {
	if err := r.ts.svc.ForceSwapOut(context.Background(), id, vpn*layout.PageSize); err != nil {
		r.t.Fatalf("force swap-out: %v", err)
	}
	r.acked()
}

func (r *tenantRun) randPage(id uint32) uint64 {
	vpns := make([]uint64, 0, len(r.view[id]))
	for vpn := range r.view[id] {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	return vpns[r.rng.Intn(len(vpns))]
}

// churn is the tenant churn mix of TestTenantCrashMatrixChurn: A and B
// share a page (A 0 = B 5) and stay put; the rest are created, forked,
// written, swapped and destroyed.
func (r *tenantRun) churn(ops int) {
	ctx := context.Background()
	A, B, C := r.create(2), r.create(2), r.create(2)
	if err := r.ts.svc.Map(ctx, A, 0, B, 5*layout.PageSize, r.tr()); err != nil {
		r.t.Fatalf("map: %v", err)
	}
	r.view[B][5] = r.view[A][0]
	r.acked()
	r.write(B, 5, [2]uint64{uint64(A), 0})
	others := []uint32{C}
	for i := 0; i < ops; i++ {
		switch r.rng.Intn(7) {
		case 0:
			if len(r.view) < 7 {
				id := r.create(2)
				others = append(others, id)
				r.write(id, 0)
			}
		case 1:
			child := r.fork(others[r.rng.Intn(len(others))])
			others = append(others, child)
			r.write(child, 0)
		case 2, 3:
			id := others[r.rng.Intn(len(others))]
			r.write(id, r.randPage(id))
		case 4:
			if len(others) > 2 {
				j := r.rng.Intn(len(others))
				r.destroy(others[j])
				others = append(others[:j], others[j+1:]...)
			}
		case 5:
			if r.rng.Intn(2) == 0 {
				r.write(A, 0, [2]uint64{uint64(B), 5})
			} else {
				r.write(B, 5, [2]uint64{uint64(A), 0})
			}
		case 6:
			id := others[r.rng.Intn(len(others))]
			r.swapOut(id, r.randPage(id))
		}
	}
}

// forkStorm is TestTenantCrashMatrixForkStorm's mix: forks of random tips
// with divergent writes on both sides of each split.
func (r *tenantRun) forkStorm(ops int) {
	base := r.create(3)
	for vpn := uint64(0); vpn < 3; vpn++ {
		r.write(base, vpn)
	}
	tips := []uint32{base}
	for i := 0; i < ops && len(tips) < 12; i++ {
		parent := tips[r.rng.Intn(len(tips))]
		child := r.fork(parent)
		tips = append(tips, child)
		vpn := uint64(r.rng.Intn(3))
		r.write(child, vpn)
		if i%2 == 0 {
			r.write(parent, vpn)
		}
	}
}

// observe reads back every page of every tenant ID ever created: absent
// tenants and unmapped pages are left out, a refused read fails the test.
func observe(t *testing.T, ts *tenantStack, known map[uint32]bool) tenantView {
	t.Helper()
	ids := make([]uint32, 0, len(known))
	for id := range known {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := tenantView{}
	for _, id := range ids {
		for vpn := uint64(0); vpn < 6; vpn++ {
			got, err := ts.svc.Read(context.Background(), id, vpn*layout.PageSize, 32, 0)
			if errors.Is(err, tenant.ErrUnknownTenant) {
				break
			}
			if errors.Is(err, core.ErrTampered) {
				t.Fatalf("tenant %d page %d refused after recovery: %v", id, vpn, err)
			}
			if err != nil {
				continue // beyond the address space, or an unmapped page
			}
			if out[id] == nil {
				out[id] = map[uint64][]byte{}
			}
			out[id][vpn] = got
		}
	}
	return out
}

// matchPrefix returns the newest index at or after floor whose view equals
// got, or -1.
func matchPrefix(hist []tenantView, floor int, got tenantView) int {
	for j := len(hist) - 1; j >= floor; j-- {
		if hist[j].equal(got) {
			return j
		}
	}
	return -1
}

// TestTenantCrashMatrixWriteback sweeps a power cut under independent
// page-cache writeback — every file keeps a seeded random prefix of its
// unsynced writes — across tenant churn and fork storms under FsyncOff and
// FsyncBatch (flusher ticks at seeded points). Recovery must never refuse,
// the pool must verify, and the recovered tenants must equal the
// acknowledged state after some operation at or after the last checkpoint:
// every page holds a value its tenant was acknowledged, never another
// tenant's bytes or a freed frame's. Across the sweep at least one
// recovery must cut the journal at a barrier.
func TestTenantCrashMatrixWriteback(t *testing.T) {
	ctx := context.Background()
	cuts, dropped := uint64(0), 0
	for _, pol := range []persist.Policy{persist.FsyncOff, persist.FsyncBatch} {
		for _, mix := range []string{"churn", "forkstorm"} {
			for seed := int64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("%v/%s/seed%d", pol, mix, seed)
				cfs := persist.NewCrashFS()
				ts, _, err := openTenantStackWith(cfs, pol, time.Hour)
				if err != nil {
					t.Fatalf("%s: fresh open: %v", name, err)
				}
				r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(seed)), view: tenantView{},
					known: map[uint32]bool{}, flush: pol == persist.FsyncBatch}
				// A checkpointed tenant first, so the sweep also covers a
				// journal suffix over a tenant-bearing section.
				pre := r.create(2)
				r.write(pre, 1)
				if err := ts.store.Checkpoint(); err != nil {
					t.Fatalf("%s: checkpoint: %v", name, err)
				}
				floor := len(r.hist) - 1
				ops := 10 + r.rng.Intn(50)
				if mix == "churn" {
					r.churn(ops)
				} else {
					r.forkStorm(ops)
				}
				if pol == persist.FsyncBatch {
					// The power fails part-way through a flusher tick.
					cfs.ArmFail(1 + r.rng.Intn(10))
					ts.store.FlushAux()
				}

				dropped += cfs.PowerCut(seed)
				ts.pool.Close()
				ts.store.Close() // stops the dead process's flusher; its handles no longer reach the disk

				ts2, info, err := openTenantStackWith(cfs, pol, time.Hour)
				if err != nil {
					t.Fatalf("%s: recovery after a power cut refused: %v", name, err)
				}
				cuts += info.AuxCut
				if err := ts2.pool.Verify(ctx); err != nil {
					t.Fatalf("%s: pool verify after recovery: %v", name, err)
				}
				got := observe(t, ts2, r.known)
				if j := matchPrefix(r.hist, floor, got); j < 0 {
					t.Fatalf("%s: recovered tenants match no acknowledged state since the checkpoint\n got:%v\nlast:%v",
						name, got, r.hist[len(r.hist)-1])
				}
				ts2.pool.Close()
				ts2.store.Close()
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no power cut lost an unsynced write: the sweep exercised nothing")
	}
	if cuts == 0 {
		t.Fatal("no recovery cut the tenant journal at a barrier across the sweep")
	}
	t.Logf("%d unsynced writes lost, %d journal records cut", dropped, cuts)
}

// TestTenantBatchLiveFlusher runs the writeback sweep's churn under a live
// 1ms FsyncBatch flusher, so barriers land in the middle of tenant
// operations and shard heads lag their writers concurrently.
func TestTenantBatchLiveFlusher(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		cfs := persist.NewCrashFS()
		ts, _, err := openTenantStackWith(cfs, persist.FsyncBatch, time.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: fresh open: %v", seed, err)
		}
		r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(seed)), view: tenantView{}, known: map[uint32]bool{}}
		r.hist = append(r.hist, tenantView{})
		r.churn(60)
		cfs.PowerCut(seed)
		ts.pool.Close()
		ts.store.Close()
		ts2, _, err := openTenantStackWith(cfs, persist.FsyncBatch, time.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: recovery refused: %v", seed, err)
		}
		if err := ts2.pool.Verify(ctx); err != nil {
			t.Fatalf("seed %d: pool verify: %v", seed, err)
		}
		if got := observe(t, ts2, r.known); matchPrefix(r.hist, 0, got) < 0 {
			t.Fatalf("seed %d: recovered tenants match no acknowledged state\n got:%v", seed, got)
		}
		ts2.pool.Close()
		ts2.store.Close()
	}
}

// TestTenantProcessKillKeepsAcked kills the process under FsyncOff — the
// page cache survives, nothing was ever synced after the fresh checkpoint
// — and requires every acknowledged tenant byte back.
func TestTenantProcessKillKeepsAcked(t *testing.T) {
	for _, mix := range []string{"churn", "forkstorm"} {
		for seed := int64(1); seed <= 4; seed++ {
			cfs := persist.NewCrashFS()
			ts, _, err := openTenantStackWith(cfs, persist.FsyncOff, time.Hour)
			if err != nil {
				t.Fatalf("fresh open: %v", err)
			}
			r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(seed)), view: tenantView{}, known: map[uint32]bool{}}
			if mix == "churn" {
				r.churn(40)
			} else {
				r.forkStorm(40)
			}
			ts.pool.Close() // SIGKILL: the store is never closed, nothing is flushed

			ts2, _, err := openTenantStackWith(cfs, persist.FsyncOff, time.Hour)
			if err != nil {
				t.Fatalf("%s seed %d: recovery after process kill refused: %v", mix, seed, err)
			}
			if got, want := observe(t, ts2, r.known), r.view; !got.equal(want) {
				t.Fatalf("%s seed %d: acknowledged tenant state lost across a process kill\n got:%v\nwant:%v", mix, seed, got, want)
			}
			ts2.pool.Close()
			ts2.store.Close()
		}
	}
}

// TestTenantRecoveryLeavesLogsAsFound kills the process under FsyncOff and
// FsyncBatch and recovers through a sync-counting FS. With the journal
// released up to a barrier, recovery syncs nothing and seals no head: the
// tails it found stay for the flusher, a checkpoint or Close, and every
// acknowledged tenant byte is back. The recovered process then runs on,
// under batch with flusher ticks, until a power cut under independent
// writeback; on half the batch seeds the power fails part-way through the
// first flusher tick after recovery instead. The next recovery must not
// refuse, the pool must verify, and the tenants must equal a state they
// were acknowledged in.
func TestTenantRecoveryLeavesLogsAsFound(t *testing.T) {
	ctx := context.Background()
	for _, pol := range []persist.Policy{persist.FsyncOff, persist.FsyncBatch} {
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("%v/seed%d", pol, seed)
			cfs := persist.NewCrashFS()
			ts, _, err := openTenantStackWith(cfs, pol, time.Hour)
			if err != nil {
				t.Fatalf("%s: fresh open: %v", name, err)
			}
			r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(seed)), view: tenantView{}, known: map[uint32]bool{}}
			r.hist = append(r.hist, tenantView{})
			r.churn(30)
			ts.pool.Close() // SIGKILL: the store is never closed, nothing is flushed

			fs := &syncLog{FS: cfs}
			ts2, _, err := openTenantStackWith(fs, pol, time.Hour)
			if err != nil {
				t.Fatalf("%s: recovery after process kill refused: %v", name, err)
			}
			if got := fs.take(); len(got) != 0 {
				t.Fatalf("%s: recovery synced %v", name, got)
			}
			if got := observe(t, ts2, r.known); !got.equal(r.view) {
				t.Fatalf("%s: acknowledged tenant state lost across a process kill\n got:%v\nwant:%v", name, got, r.view)
			}

			r.ts, r.flush = ts2, pol == persist.FsyncBatch
			if pol == persist.FsyncBatch && seed%2 == 0 {
				// The power fails part-way through the first flusher tick.
				cfs.ArmFail(1 + r.rng.Intn(10))
				ts2.store.FlushAux()
			} else {
				r.churn(20)
			}
			cfs.PowerCut(seed)
			ts2.pool.Close()
			ts2.store.Close()

			ts3, _, err := openTenantStackWith(cfs, pol, time.Hour)
			if err != nil {
				t.Fatalf("%s: recovery after a power cut refused: %v", name, err)
			}
			if err := ts3.pool.Verify(ctx); err != nil {
				t.Fatalf("%s: pool verify after recovery: %v", name, err)
			}
			if got := observe(t, ts3, r.known); matchPrefix(r.hist, 0, got) < 0 {
				t.Fatalf("%s: recovered tenants match no acknowledged state\n got:%v", name, got)
			}
			ts3.pool.Close()
			ts3.store.Close()
		}
	}
}

// TestTenantFirstBarrierDurable covers the epoch's first barrier, the one
// that binds the epoch's pool history to barriers. A failed sync of it is
// retried before anything is appended past it. Recovery syncs the aux log
// when the log does not show the first barrier durable (a lone barrier
// past the sealed head), and not once a second barrier follows it.
func TestTenantFirstBarrierDurable(t *testing.T) {
	const aux = "data/wal-aux.log"
	open := func(fs persist.FS) (*persist.Store, func()) {
		t.Helper()
		st, err := persist.Open(persist.Options{Dir: "data", Key: tenantMatrixKey, Fsync: persist.FsyncOff, RepairPoll: -1, FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		st.EnableAux()
		pool, _, err := st.Recover(tenantMatrixCfg())
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		return st, func() { pool.Close() } // SIGKILL: the store is never closed
	}
	journal := func(st *persist.Store, rec byte) error {
		if err := st.AppendAux([]byte{rec}); err != nil {
			t.Fatalf("append: %v", err)
		}
		return st.SyncAux()
	}

	fs := &syncLog{FS: persist.NewCrashFS()}
	st, kill := open(fs)
	fs.take()
	fs.fail = aux
	if err := journal(st, 1); err == nil {
		t.Fatal("a failed sync of the first barrier went unreported")
	}
	if err := journal(st, 2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	// The failed sync, its retry before the second barrier is appended, and
	// the second barrier's own sync (it is the first one known durable).
	if got := fs.take(); strings.Join(got, " ") != strings.Repeat(aux+" ", 2)+aux {
		t.Fatalf("syncs around a failed first barrier: %v, want %s three times", got, aux)
	}
	kill()

	fs = &syncLog{FS: persist.NewCrashFS()}
	st, kill = open(fs)
	if err := journal(st, 1); err != nil {
		t.Fatalf("journal: %v", err)
	}
	kill()
	fs.take()
	st, kill = open(fs)
	if got := fs.take(); len(got) != 1 || got[0] != aux {
		t.Fatalf("recovery of a lone unsealed barrier synced %v, want %s alone", got, aux)
	}
	if err := journal(st, 2); err != nil {
		t.Fatalf("journal after recovery: %v", err)
	}
	if got := fs.take(); len(got) != 0 {
		t.Fatalf("barrier after recovery synced %v: the recovered first barrier is durable", got)
	}
	kill()
	st, kill = open(fs)
	if got := fs.take(); len(got) != 0 {
		t.Fatalf("recovery of a log with two barriers synced %v", got)
	}
	kill()
	st.Close()
}

// TestTenantSealedBarrierTamperRefused edits and deletes barrier records
// inside the sealed range of a cleanly closed FsyncOff journal: both are
// refused, and the untouched log recovers.
func TestTenantSealedBarrierTamperRefused(t *testing.T) {
	cfs := persist.NewCrashFS()
	ts, _, err := openTenantStackWith(cfs, persist.FsyncOff, time.Hour)
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(7)), view: tenantView{}, known: map[uint32]bool{}}
	r.churn(12)
	ts.pool.Close()
	if err := ts.store.Close(); err != nil { // seals every barrier under the aux head
		t.Fatalf("close: %v", err)
	}
	const aux = "data/wal-aux.log"
	orig, err := cfs.ReadFile(aux)
	if err != nil {
		t.Fatalf("read aux log: %v", err)
	}
	barriers := persist.AuxBarrierFrames(orig, tenantMatrixCfg().Shards)
	if len(barriers) < 3 {
		t.Fatalf("only %d barriers in the journal", len(barriers))
	}
	mid := barriers[len(barriers)/2]
	for _, tc := range []struct {
		name string
		edit func([]byte) []byte
	}{
		{"edit", func(b []byte) []byte { b[mid[1]-40] ^= 0x01; return b }}, // a claim byte of the payload
		{"delete", func(b []byte) []byte { return append(b[:mid[0]:mid[0]], b[mid[1]:]...) }},
		{"delete-last", func(b []byte) []byte {
			last := barriers[len(barriers)-1]
			return append(b[:last[0]:last[0]], b[last[1]:]...)
		}},
	} {
		cfs.Mutate(aux, func([]byte) []byte { return tc.edit(append([]byte(nil), orig...)) })
		if _, _, err := openTenantStackWith(cfs, persist.FsyncOff, time.Hour); !errors.Is(err, persist.ErrTenantTampered) {
			t.Fatalf("%s of a sealed barrier accepted: err=%v", tc.name, err)
		}
	}
	cfs.Mutate(aux, func([]byte) []byte { return append([]byte(nil), orig...) })
	ts2, _, err := openTenantStackWith(cfs, persist.FsyncOff, time.Hour)
	if err != nil {
		t.Fatalf("reopen of the untouched journal: %v", err)
	}
	if got := observe(t, ts2, r.known); !got.equal(r.view) {
		t.Fatalf("clean close lost tenant state\n got:%v\nwant:%v", got, r.view)
	}
	ts2.pool.Close()
	ts2.store.Close()
}

// TestTenantUnsatisfiedSealedBarrierRefused rolls back a shard WAL's
// unsealed tail under FsyncBatch. The shard head lags (it is sealed only
// within the previous barrier's claims), so the shard scan alone accepts
// the shorter log — but a barrier under the sealed aux head claims the
// deleted records, and recovery refuses with ErrTrustTampered.
func TestTenantUnsatisfiedSealedBarrierRefused(t *testing.T) {
	cfs := persist.NewCrashFS()
	ts, _, err := openTenantStackWith(cfs, persist.FsyncBatch, time.Hour)
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	r := &tenantRun{t: t, ts: ts, rng: rand.New(rand.NewSource(3)), view: tenantView{}, known: map[uint32]bool{}}
	id := r.create(2) // frames 0 and 1: one page per shard
	r.write(id, 0)
	if err := ts.store.FlushAux(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r.write(id, 0) // shard 0's newest record: past its head after the next flush
	if err := ts.store.FlushAux(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cfs.PowerCut(0) // everything was synced: this only retires the old process
	ts.pool.Close()
	ts.store.Close()

	const wal = "data/wal-000.log"
	orig, err := cfs.ReadFile(wal)
	if err != nil {
		t.Fatalf("read shard WAL: %v", err)
	}
	frames := persist.WALFrames(orig)
	last := frames[len(frames)-1]
	cfs.Mutate(wal, func(b []byte) []byte { return b[:last[0]] })
	if _, _, err := openTenantStackWith(cfs, persist.FsyncBatch, time.Hour); !errors.Is(err, persist.ErrTrustTampered) {
		t.Fatalf("shard WAL rolled back under a sealed barrier accepted: err=%v", err)
	}
	cfs.Mutate(wal, func([]byte) []byte { return orig })
	ts2, _, err := openTenantStackWith(cfs, persist.FsyncBatch, time.Hour)
	if err != nil {
		t.Fatalf("reopen with the shard WAL restored: %v", err)
	}
	if got := observe(t, ts2, r.known); !got.equal(r.view) {
		t.Fatalf("tenant state after restore\n got:%v\nwant:%v", got, r.view)
	}
	ts2.pool.Close()
	ts2.store.Close()
}

// syncLog wraps an FS and records every data and directory sync, in order.
type syncLog struct {
	persist.FS
	mu    sync.Mutex
	syncs []string
	fail  string // the next data sync of this file fails
}

// note records a sync and reports whether it is to fail.
func (s *syncLog) note(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs = append(s.syncs, name)
	if name == s.fail {
		s.fail = ""
		return true
	}
	return false
}

func (s *syncLog) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.syncs
	s.syncs = nil
	return out
}

func (s *syncLog) Create(name string) (persist.File, error) {
	f, err := s.FS.Create(name)
	return s.wrap(name, f, err)
}

func (s *syncLog) OpenFile(name string) (persist.File, error) {
	f, err := s.FS.OpenFile(name)
	return s.wrap(name, f, err)
}

func (s *syncLog) SyncDir(dir string) error {
	s.note(dir + "/")
	return s.FS.SyncDir(dir)
}

func (s *syncLog) wrap(name string, f persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	return syncFile{File: f, name: name, log: s}, nil
}

type syncFile struct {
	persist.File
	name string
	log  *syncLog
}

func (f syncFile) Sync() error {
	if f.log.note(f.name) {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// alwaysAckSyncs are the syncs FsyncAlways pays on the ack path of the two
// operations below: a fork syncs the aux log and its head; a faulting read
// commits its swap-in (shard WAL + head) and then syncs the aux log and
// its head. Pinned to the count before barriers existed.
const (
	alwaysForkSyncs = 2
	alwaysReadSyncs = 4
)

// TestTenantAckSyncs counts the syncs an acknowledged fork and a faulting
// tenant read cost on the ack path per fsync policy: none under batch and
// off, the pinned pre-barrier count under always. It also checks that the
// batch flusher syncs every dirty shard WAL before the aux log.
func TestTenantAckSyncs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		pol         persist.Policy
		fork, fault int
	}{
		{persist.FsyncAlways, alwaysForkSyncs, alwaysReadSyncs},
		{persist.FsyncBatch, 0, 0},
		{persist.FsyncOff, 0, 0},
	} {
		fs := &syncLog{FS: persist.NewCrashFS()}
		ts, _, err := openTenantStackWith(fs, tc.pol, time.Hour)
		if err != nil {
			t.Fatalf("%v: open: %v", tc.pol, err)
		}
		id, err := ts.svc.Create(ctx, 2, 1)
		if err != nil {
			t.Fatalf("%v: create: %v", tc.pol, err)
		}
		for vpn := uint64(0); vpn < 2; vpn++ {
			if err := ts.svc.Write(ctx, id, vpn*layout.PageSize, tval(int(vpn)), 2); err != nil {
				t.Fatalf("%v: write: %v", tc.pol, err)
			}
		}
		if err := ts.svc.ForceSwapOut(ctx, id, 0); err != nil {
			t.Fatalf("%v: swap-out: %v", tc.pol, err)
		}

		fs.take()
		if _, err := ts.svc.Fork(ctx, id, 3); err != nil {
			t.Fatalf("%v: fork: %v", tc.pol, err)
		}
		if got := fs.take(); len(got) != tc.fork {
			t.Errorf("%v: acked fork cost %d syncs %v, want %d", tc.pol, len(got), got, tc.fork)
		}
		if _, err := ts.svc.Read(ctx, id, 0, 32, 4); err != nil {
			t.Fatalf("%v: faulting read: %v", tc.pol, err)
		}
		if got := fs.take(); len(got) != tc.fault {
			t.Errorf("%v: acked faulting read cost %d syncs %v, want %d", tc.pol, len(got), got, tc.fault)
		}

		if tc.pol == persist.FsyncBatch {
			// Both pages are resident again (frames 0 and 1, one per shard):
			// write both so each shard WAL is dirty, then tick the flusher.
			for vpn := uint64(0); vpn < 2; vpn++ {
				if err := ts.svc.Write(ctx, id, vpn*layout.PageSize, tval(9+int(vpn)), 5); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			fs.take()
			if err := ts.store.FlushAux(); err != nil {
				t.Fatalf("flusher tick: %v", err)
			}
			seen := map[string]int{}
			for i, name := range fs.take() {
				if _, ok := seen[name]; !ok {
					seen[name] = i
				}
			}
			aux, ok := seen["data/wal-aux.log"]
			if !ok {
				t.Fatalf("flusher tick never synced the aux log: %v", seen)
			}
			for _, w := range []string{"data/wal-000.log", "data/wal-001.log"} {
				if i, ok := seen[w]; !ok || i > aux {
					t.Fatalf("flusher synced %s at %d (present %v), the aux log at %d: shard WALs must come first", w, i, ok, aux)
				}
			}
		}
		ts.pool.Close()
		ts.store.Close()
	}
}
