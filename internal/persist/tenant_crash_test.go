// Tenant-layer extension of the crash matrix. These tests live in an
// external test package so they can stack the tenant service (which
// imports persist) on top of the crash-injecting filesystem: a power cut
// is swept across tenant churn and fork storms, and recovery must rebuild
// every acknowledged address-space byte while refusing tampered or
// rolled-back tenant state.
package persist_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

var tenantMatrixKey = []byte("tenant-crash-k16")

func tenantMatrixCfg() shard.Config {
	return shard.Config{
		Shards: 2,
		Core: core.Config{
			DataBytes:  2 * 16 * layout.PageSize,
			Key:        tenantMatrixKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  16,
		},
	}
}

// tenantStack is one "daemon": durable store with the tenant journal
// enabled, recovered pool, tenant layer rebuilt from the journal — the
// wiring cmd/secmemd uses under -tenant-durable.
type tenantStack struct {
	store *persist.Store
	pool  *shard.Pool
	svc   *tenant.Service
}

func openTenantStack(cfs *persist.CrashFS) (*tenantStack, error) {
	ts, _, err := openTenantStackWith(cfs, persist.FsyncAlways, time.Hour) // deterministic: no background flusher
	return ts, err
}

// openTenantStackWith is openTenantStack under any fsync policy over any
// FS; interval is FsyncBatch's flusher period.
func openTenantStackWith(fs persist.FS, pol persist.Policy, interval time.Duration) (*tenantStack, persist.RecoveryInfo, error) {
	st, err := persist.Open(persist.Options{
		Dir:           "data",
		Key:           tenantMatrixKey,
		Fsync:         pol,
		FsyncInterval: interval,
		RepairPoll:    -1, // no online repair across simulated process death
		FS:            fs,
	})
	if err != nil {
		return nil, persist.RecoveryInfo{}, err
	}
	st.EnableAux()
	pool, info, err := st.Recover(tenantMatrixCfg())
	if err != nil {
		st.Close()
		return nil, info, err
	}
	svc, err := tenant.Recover(tenant.Config{Pool: pool, Journal: st}, st.TakeAuxRecovery())
	if err != nil {
		pool.Close()
		st.Close()
		return nil, info, err
	}
	st.SetAuxSource(svc.FreezeOps, svc.ThawOps, svc.SnapshotState)
	return &tenantStack{store: st, pool: pool, svc: svc}, info, nil
}

// crash abandons the stack the way a power cut leaves it: pool workers
// stop, the store is never closed, nothing is flushed.
func (ts *tenantStack) crash(cfs *persist.CrashFS) {
	cfs.Crash()
	ts.pool.Close()
}

// tval is a deterministic 32-byte page value (one cache block wide, so a
// single in-flight write is atomic at the pool layer: the recovered byte
// is either the old value or the new one, never a splice).
func tval(seed int) []byte {
	v := make([]byte, 32)
	for i := range v {
		v[i] = byte(seed>>(8*(i%4))) ^ byte(i*37+11)
	}
	return v
}

// tenantShadow tracks acked state only: id → vpn → value.
type tenantShadow map[uint32]map[uint64][]byte

func (sh tenantShadow) ids() []uint32 {
	out := make([]uint32, 0, len(sh))
	for id := range sh {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (sh tenantShadow) vpns(id uint32) []uint64 {
	out := make([]uint64, 0, len(sh[id]))
	for v := range sh[id] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inflightTol records the single operation the power cut interrupted: its
// write may be durable without having been acknowledged, so the recovered
// page may hold either the prior shadow value or this one.
type inflightTol struct {
	id  uint32
	vpn uint64
	val []byte
}

// verifyTenantShadow reopens the directory and checks every acked page
// byte-for-byte, tolerating only the recorded in-flight writes and
// skipping a tenant whose Destroy was the interrupted operation (it may
// have died partially unmapped).
func verifyTenantShadow(t *testing.T, k int, cfs *persist.CrashFS, shadow tenantShadow, tols []inflightTol, skipID uint32, skip bool) {
	t.Helper()
	ts, err := openTenantStack(cfs)
	if err != nil {
		t.Fatalf("k=%d: recovery after pure crash failed closed: %v", k, err)
	}
	defer ts.store.Close()
	defer ts.pool.Close()
	ctx := context.Background()
	var trace uint64
	for _, id := range shadow.ids() {
		if skip && id == skipID {
			continue
		}
		for _, vpn := range shadow.vpns(id) {
			want := shadow[id][vpn]
			trace++
			got, err := ts.svc.Read(ctx, id, vpn*layout.PageSize, len(want), trace)
			if err != nil {
				t.Fatalf("k=%d: tenant %d page %d unreadable after recovery: %v", k, id, vpn, err)
			}
			if bytes.Equal(got, want) {
				continue
			}
			tolerated := false
			for _, tol := range tols {
				if tol.id == id && tol.vpn == vpn && bytes.Equal(got, tol.val) {
					tolerated = true
					break
				}
			}
			if !tolerated {
				t.Fatalf("k=%d: acked tenant write lost: tenant %d page %d got %x..., want %x...",
					k, id, vpn, got[:4], want[:4])
			}
		}
	}
}

// TestTenantCrashMatrixChurn sweeps an injected power failure across
// tenant churn — create, fork, write, destroy, shared-mapping writes and
// forced swap-outs — layered over a tenant-bearing checkpoint. Recovery
// must never fail closed and must serve every acked write.
func TestTenantCrashMatrixChurn(t *testing.T) {
	ctx := context.Background()
	for k := 1; k <= 57; k += 8 {
		cfs := persist.NewCrashFS()
		ts, err := openTenantStack(cfs)
		if err != nil {
			t.Fatalf("k=%d: fresh open: %v", k, err)
		}
		shadow := tenantShadow{}
		var trace uint64
		tr := func() uint64 { trace++; return trace }
		mustCreate := func(npages int) uint32 {
			id, err := ts.svc.Create(ctx, npages, tr())
			if err != nil {
				t.Fatalf("k=%d: pre-phase create: %v", k, err)
			}
			shadow[id] = map[uint64][]byte{}
			return id
		}
		mustWrite := func(id uint32, vpn uint64, val []byte) {
			if err := ts.svc.Write(ctx, id, vpn*layout.PageSize, val, tr()); err != nil {
				t.Fatalf("k=%d: pre-phase write: %v", k, err)
			}
			shadow[id][vpn] = val
		}

		// Pre-phase, fault disarmed: tenants A and B joined by a shared
		// mapping (A page 0 aliased at B page 5), a bystander C, all
		// sealed into a checkpoint so the sweep also covers journal
		// replay on top of a tenant-bearing aux snapshot.
		A := mustCreate(2)
		mustWrite(A, 0, tval(1))
		mustWrite(A, 1, tval(2))
		B := mustCreate(2)
		mustWrite(B, 0, tval(3))
		mustWrite(B, 1, tval(4))
		if err := ts.svc.Map(ctx, A, 0, B, 5*layout.PageSize, tr()); err != nil {
			t.Fatalf("k=%d: pre-phase map: %v", k, err)
		}
		aliasV := tval(5)
		mustWrite(B, 5, aliasV)
		shadow[A][0] = aliasV // one frame, two views
		C := mustCreate(2)
		mustWrite(C, 0, tval(6))
		if err := ts.store.Checkpoint(); err != nil {
			t.Fatalf("k=%d: checkpoint: %v", k, err)
		}

		// Sweep phase: churn until the armed fault kills an operation.
		cfs.ArmFail(k)
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		others := []uint32{C} // fork/destroy candidates; A and B stay put so the alias bookkeeping stays two-sided
		var tols []inflightTol
		var skipID uint32
		var skip bool
		var lastWrite inflightTol // most recent acked write: a guaranteed-resident swap-out target
		seq := 0
	churn:
		for i := 0; i < 400; i++ {
			switch i % 6 {
			case 0: // create + first write
				if len(shadow) >= 7 {
					continue
				}
				id, err := ts.svc.Create(ctx, 2, tr())
				if err != nil {
					break churn
				}
				shadow[id] = map[uint64][]byte{}
				others = append(others, id)
				v := tval(10000 + seq)
				seq++
				if err := ts.svc.Write(ctx, id, 0, v, tr()); err != nil {
					tols = append(tols, inflightTol{id, 0, v})
					break churn
				}
				shadow[id][0] = v
				lastWrite = inflightTol{id, 0, v}
			case 1: // fork + divergent write
				src := others[rng.Intn(len(others))]
				child, err := ts.svc.Fork(ctx, src, tr())
				if err != nil {
					break churn
				}
				cp := map[uint64][]byte{}
				for vpn, v := range shadow[src] {
					cp[vpn] = v
				}
				shadow[child] = cp
				others = append(others, child)
				v := tval(20000 + seq)
				seq++
				if err := ts.svc.Write(ctx, child, 0, v, tr()); err != nil {
					tols = append(tols, inflightTol{child, 0, v})
					break churn
				}
				shadow[child][0] = v
				lastWrite = inflightTol{child, 0, v}
			case 2: // overwrite a random page (alias pages have their own op)
				ids := shadow.ids()
				id := ids[rng.Intn(len(ids))]
				vpn := uint64(rng.Intn(2))
				if id == A && vpn == 0 {
					vpn = 1
				}
				v := tval(30000 + seq)
				seq++
				if err := ts.svc.Write(ctx, id, vpn*layout.PageSize, v, tr()); err != nil {
					tols = append(tols, inflightTol{id, vpn, v})
					break churn
				}
				shadow[id][vpn] = v
				lastWrite = inflightTol{id, vpn, v}
			case 3: // destroy a churn tenant
				if len(others) < 3 {
					continue
				}
				j := rng.Intn(len(others))
				id := others[j]
				if err := ts.svc.Destroy(ctx, id, tr()); err != nil {
					skipID, skip = id, true
					break churn
				}
				delete(shadow, id)
				others = append(others[:j], others[j+1:]...)
			case 4: // write through the shared mapping: both views move together
				v := tval(40000 + seq)
				seq++
				var err error
				if rng.Intn(2) == 0 {
					err = ts.svc.Write(ctx, A, 0, v, tr())
				} else {
					err = ts.svc.Write(ctx, B, 5*layout.PageSize, v, tr())
				}
				if err != nil {
					tols = append(tols, inflightTol{A, 0, v}, inflightTol{B, 5, v})
					break churn
				}
				shadow[A][0] = v
				shadow[B][5] = v
			case 5: // evict the most recently written page (known resident)
				if lastWrite.val == nil {
					continue
				}
				if err := ts.svc.ForceSwapOut(ctx, lastWrite.id, lastWrite.vpn*layout.PageSize); err != nil {
					break churn // movement only — no shadow change either way
				}
			}
		}
		ts.crash(cfs)
		verifyTenantShadow(t, k, cfs, shadow, tols, skipID, skip)
	}
}

// TestTenantCrashMatrixForkStorm sweeps the power cut across a burst of
// forks with divergent writes on both sides of each split, the worst case
// for the COW bookkeeping the tenant journal has to replay.
func TestTenantCrashMatrixForkStorm(t *testing.T) {
	ctx := context.Background()
	for k := 1; k <= 49; k += 8 {
		cfs := persist.NewCrashFS()
		ts, err := openTenantStack(cfs)
		if err != nil {
			t.Fatalf("k=%d: fresh open: %v", k, err)
		}
		shadow := tenantShadow{}
		var trace uint64
		tr := func() uint64 { trace++; return trace }
		base, err := ts.svc.Create(ctx, 3, tr())
		if err != nil {
			t.Fatalf("k=%d: create: %v", k, err)
		}
		shadow[base] = map[uint64][]byte{}
		for vpn := uint64(0); vpn < 3; vpn++ {
			v := tval(50000 + int(vpn))
			if err := ts.svc.Write(ctx, base, vpn*layout.PageSize, v, tr()); err != nil {
				t.Fatalf("k=%d: seed write: %v", k, err)
			}
			shadow[base][vpn] = v
		}

		cfs.ArmFail(k)
		rng := rand.New(rand.NewSource(int64(2000 + k)))
		tips := []uint32{base}
		var tols []inflightTol
		seq := 0
	storm:
		for i := 0; i < 12; i++ {
			parent := tips[rng.Intn(len(tips))]
			child, err := ts.svc.Fork(ctx, parent, tr())
			if err != nil {
				break storm
			}
			cp := map[uint64][]byte{}
			for vpn, v := range shadow[parent] {
				cp[vpn] = v
			}
			shadow[child] = cp
			tips = append(tips, child)
			vpn := uint64(rng.Intn(3))
			v := tval(60000 + seq)
			seq++
			if err := ts.svc.Write(ctx, child, vpn*layout.PageSize, v, tr()); err != nil {
				tols = append(tols, inflightTol{child, vpn, v})
				break storm
			}
			shadow[child][vpn] = v
			if i%2 == 0 { // diverge the parent's side of the split too
				v2 := tval(70000 + seq)
				seq++
				if err := ts.svc.Write(ctx, parent, vpn*layout.PageSize, v2, tr()); err != nil {
					tols = append(tols, inflightTol{parent, vpn, v2})
					break storm
				}
				shadow[parent][vpn] = v2
			}
		}
		ts.crash(cfs)
		verifyTenantShadow(t, k, cfs, shadow, tols, 0, false)
	}
}

// TestTenantCheckpointTamperRefused flips one byte of the sealed tenant
// checkpoint section: recovery must refuse the directory with
// ErrTenantTampered, and must accept it again once the byte is restored.
func TestTenantCheckpointTamperRefused(t *testing.T) {
	ctx := context.Background()
	cfs := persist.NewCrashFS()
	ts, err := openTenantStack(cfs)
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	id, err := ts.svc.Create(ctx, 2, 1)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := tval(99)
	if err := ts.svc.Write(ctx, id, 0, want, 2); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := ts.store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ts.crash(cfs)

	names, err := cfs.ReadDir("data")
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	snap := ""
	for _, n := range names {
		if strings.HasPrefix(n, "auxsnap-") {
			snap = "data/" + n
		}
	}
	if snap == "" {
		t.Fatal("no tenant checkpoint section on disk after Checkpoint")
	}
	flip := func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }
	cfs.Mutate(snap, flip)
	if _, err := openTenantStack(cfs); !errors.Is(err, persist.ErrTenantTampered) {
		t.Fatalf("tampered tenant checkpoint accepted: err=%v", err)
	}
	cfs.Mutate(snap, flip) // restore the byte: the refusal was the flip, nothing else
	ts2, err := openTenantStack(cfs)
	if err != nil {
		t.Fatalf("reopen after restoring checkpoint byte: %v", err)
	}
	defer ts2.store.Close()
	defer ts2.pool.Close()
	got, err := ts2.svc.Read(ctx, id, 0, len(want), 3)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tenant state after restore: got %x, %v; want %x", got, err, want)
	}
}

// TestTenantJournalRollbackRefused destroys the sealed aux WAL head under
// an anchor that carries a tenant section — the signature of rolled-back
// tenant state. Recovery must fail closed with ErrTrustTampered.
func TestTenantJournalRollbackRefused(t *testing.T) {
	ctx := context.Background()
	cfs := persist.NewCrashFS()
	ts, err := openTenantStack(cfs)
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	id, err := ts.svc.Create(ctx, 2, 1)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := ts.svc.Write(ctx, id, 0, tval(7), 2); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := ts.store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Journal suffix on top of the checkpoint, so there is post-anchor
	// tenant history for the missing head to orphan.
	if _, err := ts.svc.Fork(ctx, id, 3); err != nil {
		t.Fatalf("fork: %v", err)
	}
	ts.crash(cfs)

	if err := cfs.Remove("data/walhead-aux.bin"); err != nil {
		t.Fatalf("remove aux head: %v", err)
	}
	if _, err := openTenantStack(cfs); !errors.Is(err, persist.ErrTrustTampered) {
		t.Fatalf("recovery without the sealed aux head accepted: err=%v", err)
	}
}
