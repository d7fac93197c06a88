package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
	"aisebmt/internal/shard"
)

// snapFile returns the path of the newest snapshot in cfs's data
// directory (a crash can leave a superseded one behind).
func snapFile(t *testing.T, cfs *crashFS) string {
	t.Helper()
	names, _ := cfs.ReadDir("data")
	last := ""
	for _, n := range names {
		if strings.HasPrefix(n, "snap-") {
			last = filepath.Join("data", n)
		}
	}
	if last == "" {
		t.Fatal("no snapshot in data dir")
	}
	return last
}

// TestRecoverStaleSwapIn: a swap-in of a page image that no longer matches
// its directory slot is logged before it executes and refused live; the
// shard keeps serving. Recovery reproduces the refusal as a skipped
// replay and ends in the live state, instead of refusing the directory.
func TestRecoverStaleSwapIn(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(2)
	ctx := context.Background()
	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	acked := writeN(t, pool, cfg, 0, 8)
	page := layout.Addr(0)
	img, err := pool.SwapOut(ctx, page, 3)
	if err != nil {
		t.Fatalf("SwapOut: %v", err)
	}
	if err := pool.SwapIn(ctx, img, page, 3); err != nil {
		t.Fatalf("SwapIn: %v", err)
	}
	err = pool.SwapIn(ctx, img, page, 3)
	if !errors.Is(err, core.ErrImageMismatch) || !errors.Is(err, core.ErrTampered) {
		t.Fatalf("second SwapIn = %v, want %v (an %v)", err, core.ErrImageMismatch, core.ErrTampered)
	}
	for a, v := range writeN(t, pool, cfg, 100, 4) {
		acked[a] = v
	}
	roots := pool.Roots()
	var live bytes.Buffer
	if _, err := pool.Hibernate(&live); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	cfs.crash()
	pool.Close()
	st.Close()

	st2 := openStore(t, cfs, FsyncAlways)
	defer st2.Close()
	pool2, info, err := st2.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover with a refused swap-in in the WAL: %v", err)
	}
	defer pool2.Close()
	if info.ReplaySkipped != 1 {
		t.Fatalf("info = %+v, want one skipped replay", info)
	}
	var got bytes.Buffer
	if _, err := pool2.Hibernate(&got); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	if !reflect.DeepEqual(pool2.Roots(), roots) || !bytes.Equal(got.Bytes(), live.Bytes()) {
		t.Fatal("recovered pool differs from the live one")
	}
	checkValues(t, pool2, acked)
}

// TestRecoverTamperedRootDirSlot: a directory slot whose snapshot bytes
// fail their tree check is tampered state, not a stale image — a replayed
// swap-in from it still fails the directory closed.
func TestRecoverTamperedRootDirSlot(t *testing.T) {
	cfs := newCrashFS()
	cfg := testCfg(1)
	ctx := context.Background()
	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	writeN(t, pool, cfg, 0, 8)
	const slot = 3
	img, err := pool.SwapOut(ctx, 0, slot)
	if err != nil {
		t.Fatalf("SwapOut: %v", err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := pool.SwapIn(ctx, img, 0, slot); err != nil {
		t.Fatalf("SwapIn: %v", err)
	}
	var dir mem.Region
	for _, r := range pool.UntrustedMemory(0).Regions() {
		if r.Name == "rootdir" {
			dir = r
		}
	}
	slotAddr := dir.Base + layout.Addr(slot*cfg.Core.MACBits/8)
	cfs.crash()
	pool.Close()
	st.Close()

	found := false
	cfs.mutate(snapFile(t, cfs), func(b []byte) []byte {
		start, end := snapSection(b, 0)
		for off := start + 24; off+8+layout.BlockSize <= end; off += 8 + layout.BlockSize {
			if a := layout.Addr(binary.LittleEndian.Uint64(b[off:])); a == slotAddr.BlockAddr() {
				b[off+8+int(slotAddr-a)] ^= 0x01
				found = true
			}
		}
		return b
	})
	if !found {
		t.Fatalf("no snapshot record for directory slot %d at %#x", slot, slotAddr)
	}
	st2 := openStore(t, cfs, FsyncAlways)
	defer st2.Close()
	_, _, err = st2.Recover(cfg)
	if !errors.Is(err, ErrSnapshotTampered) || !strings.Contains(err.Error(), "page root directory") {
		t.Fatalf("Recover = %v, want %v at the directory slot", err, ErrSnapshotTampered)
	}
}

// TestRecoverRefusesCutSnapshot: a snapshot cut short, or whose section
// length runs past its end, is refused with ErrSnapshotTampered by the
// framing walk, and no pool or rebuild worker is left behind. Cuts are
// taken at every offset of the header and of every section's framing and
// first record, at every 61st byte between, and at each of the last 100
// bytes (shard.TestSectionsRefuseEveryCut walks every offset).
func TestRecoverRefusesCutSnapshot(t *testing.T) {
	cfs, opts, cfg := oracleDir(t)
	name := snapFile(t, cfs)
	orig, err := cfs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	before := recoveryGoroutines()
	refused := func(what string, snap []byte) {
		t.Helper()
		cfs.mutate(name, func([]byte) []byte { return snap })
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		pool, _, err := st.Recover(cfg)
		if !errors.Is(err, ErrSnapshotTampered) || pool != nil {
			t.Fatalf("%s: Recover = %v, want %v and no pool", what, err, ErrSnapshotTampered)
		}
	}
	cuts := map[int]bool{}
	for cut := 0; cut < len(orig); cut += 61 {
		cuts[cut] = true
	}
	for cut := max(0, len(orig)-100); cut < len(orig); cut++ {
		cuts[cut] = true
	}
	for i := 0; i < cfg.Shards; i++ {
		start, _ := snapSection(orig, i)
		for cut := max(0, start-8-snapHeaderLen-12); cut < start+24+8+layout.BlockSize; cut++ {
			cuts[cut] = true
		}
	}
	for cut := range cuts {
		refused(fmt.Sprintf("cut at %d", cut), orig[:cut])
	}
	for i := 0; i < cfg.Shards; i++ {
		start, end := snapSection(orig, i)
		for _, n := range []uint64{uint64(end-start) + uint64(len(orig)-end) + 1, 1 << 63, ^uint64(0)} {
			long := bytes.Clone(orig)
			binary.LittleEndian.PutUint64(long[start-8:], n)
			refused(fmt.Sprintf("shard %d section length %d", i, n), long)
		}
	}
	if n := recoveryGoroutines(); n != before {
		t.Fatalf("%d rebuild or pool workers left behind", n-before)
	}
}

// allocated returns the bytes f allocates, counted from a collected heap.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// poolDir leaves behind in cfs a durable directory of a 4-shard 16 MiB
// pool, checkpointed with every data block written when full (with only
// what initialization wrote otherwise), and walWrites WAL records past
// the snapshot. It returns the store's options.
func poolDir(t *testing.T, cfs *crashFS, full bool, walWrites int) (Options, shard.Config) {
	t.Helper()
	cfg := testCfg(4)
	cfg.Core.DataBytes = 16 << 20
	pool, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	page := make([]byte, layout.PageSize)
	for a := uint64(0); full && a < cfg.Core.DataBytes; a += layout.PageSize {
		page[0], page[1] = byte(a>>12), byte(a>>20)
		if err := pool.Write(ctx, layout.Addr(a), page, testMeta(layout.Addr(a))); err != nil {
			t.Fatal(err)
		}
	}
	st := openStore(t, cfs, FsyncAlways)
	if err := st.Adopt(pool); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	writeN(t, pool, cfg, 0, walWrites)
	cfs.crash()
	pool.Close()
	st.Close()
	opts := st.opts
	opts.Logf = nil
	return opts, cfg
}

// residentFrames sums the page frames of the pool's shards (all of them
// when shards is nil).
func residentFrames(pool *shard.Pool, shards ...int) uint64 {
	if shards == nil {
		for i := 0; i < pool.Shards(); i++ {
			shards = append(shards, i)
		}
	}
	var n uint64
	for _, i := range shards {
		n += pool.UntrustedMemory(i).ResidentBytes()
	}
	return n
}

// TestRecoverAllocBound: recovering a full 16 MiB directory allocates no
// more than recovering an empty pool of the same shape with the same WAL
// does, plus the full pool's extra page frames and one decode chunk per
// shard — never a copy of the snapshot.
func TestRecoverAllocBound(t *testing.T) {
	recoverAllocs := func(full bool) (alloc, frames uint64, snap int64) {
		cfs := newCrashFS()
		opts, cfg := poolDir(t, cfs, full, 400)
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var pool *shard.Pool
		var info RecoveryInfo
		alloc = allocated(func() { pool, info, err = st.Recover(cfg) })
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		defer pool.Close()
		return alloc, residentFrames(pool), info.SnapshotBytes
	}
	empty, emptyFrames, _ := recoverAllocs(false)
	got, frames, snap := recoverAllocs(true)
	bound := empty + frames - emptyFrames + 4*mem.DecodeChunk
	t.Logf("Recover allocated %d bytes over a %d-byte snapshot (empty pool %d, frames %d vs %d)", got, snap, empty, frames, emptyFrames)
	if got > bound {
		t.Fatalf("Recover allocated %d bytes, bound %d (empty pool's %d + %d more frame bytes + 4 decode chunks)", got, bound, empty, frames-emptyFrames)
	}
}

// TestRepairAllocBound: repairing one shard reads only its own section,
// allocating no more than repairing it in an empty pool of the same shape
// does, plus its extra page frames and one decode chunk.
func TestRepairAllocBound(t *testing.T) {
	const i = 1
	repairAllocs := func(full bool) (alloc, frames uint64) {
		cfs := newCrashFS()
		opts, cfg := poolDir(t, cfs, full, 0)
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		pool, _, err := st.Recover(cfg)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		defer pool.Close()
		if err := pool.Cordon(i); err != nil {
			t.Fatal(err)
		}
		if err := pool.Uncordon(i); err != nil {
			t.Fatal(err)
		}
		alloc = allocated(func() { err = st.RepairShard(i) })
		if err != nil {
			t.Fatalf("RepairShard: %v", err)
		}
		return alloc, residentFrames(pool, i)
	}
	empty, emptyFrames := repairAllocs(false)
	got, frames := repairAllocs(true)
	bound := empty + frames - emptyFrames + mem.DecodeChunk
	t.Logf("RepairShard allocated %d bytes (empty pool %d, frames %d vs %d)", got, empty, frames, emptyFrames)
	if got > bound {
		t.Fatalf("RepairShard allocated %d bytes, bound %d (empty pool's %d + %d more frame bytes + one decode chunk)", got, bound, empty, frames-emptyFrames)
	}
}
