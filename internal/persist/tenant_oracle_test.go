package persist_test

import (
	"context"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// TestTenantRecoverMatchesSerial holds the concurrent Recover to the
// serial reference on a tenant directory whose shard WALs carry swap-out,
// swap-in and move events on at least three shards: the tenant layer's
// AuxRecovery must see exactly the reference's event sequence.
func TestTenantRecoverMatchesSerial(t *testing.T) {
	cfg := shard.Config{
		Shards: 4,
		Core: core.Config{
			DataBytes:  4 * 16 * layout.PageSize,
			Key:        tenantMatrixKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  16,
		},
	}
	opts := persist.Options{Dir: "data", Key: tenantMatrixKey, Fsync: persist.FsyncAlways, FsyncInterval: time.Hour, RepairPoll: -1}
	cfs := persist.NewCrashFS()
	o := opts
	o.FS = cfs
	st, err := persist.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	st.EnableAux()
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tenant.Recover(tenant.Config{Pool: pool, Journal: st}, st.TakeAuxRecovery())
	if err != nil {
		t.Fatal(err)
	}
	st.SetAuxSource(svc.FreezeOps, svc.ThawOps, svc.SnapshotState)

	ctx := context.Background()
	var ids []uint32
	for k := 0; k < 3; k++ {
		id, err := svc.Create(ctx, 4, 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		ids = append(ids, id)
		for vpn := uint64(0); vpn < 4; vpn++ {
			if err := svc.Write(ctx, id, vpn*layout.PageSize, tval(int(id)*10+int(vpn)), 0); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, id := range ids {
		for vpn := uint64(0); vpn < 4; vpn++ {
			va := vpn * layout.PageSize
			if err := svc.ForceSwapOut(ctx, id, va); err != nil {
				t.Fatalf("swap-out tenant %d page %d: %v", id, vpn, err)
			}
			if _, err := svc.Read(ctx, id, va, 32, 0); err != nil { // faults the page back in
				t.Fatalf("read tenant %d page %d: %v", id, vpn, err)
			}
			if err := svc.Migrate(ctx, id, va, 0); err != nil {
				t.Fatalf("migrate tenant %d page %d: %v", id, vpn, err)
			}
		}
	}
	cfs.Crash()
	pool.Close()

	_, aux, err := persist.CheckAgainstSerial(t, cfs, opts, cfg, true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	kinds := map[shard.MutKind]map[int]bool{shard.MutSwapOut: {}, shard.MutSwapIn: {}, shard.MutMove: {}}
	for _, ev := range aux.Events {
		kinds[ev.Kind][ev.Shard] = true
	}
	for kind, shards := range kinds {
		if len(shards) < 3 {
			t.Fatalf("events of kind %d on shards %v of %d events, want at least three shards", kind, shards, len(aux.Events))
		}
	}
}
