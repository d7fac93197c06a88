package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// The ladder replays one op list, one goroutine, against successively
// taller stacks built from public constructors with the daemon's own
// configuration. A layer's self time is its rung's median minus the rung
// below; what the tallest in-process rung does not explain of the real
// daemon's median is the budget residual.

// demoKey is the daemon's default processor key (cmd/secmemd).
var demoKey = []byte("secmemd-demo-key")

// poolConfig mirrors what cmd/secmemd builds from default flags.
func poolConfig(w *workload, svc *obs.Service) shard.Config {
	return shard.Config{
		Shards: shard.DefaultShards,
		Obs:    svc,
		Core: core.Config{
			DataBytes:           uint64(w.memMiB) << 20,
			MACBits:             128,
			Key:                 demoKey,
			Encryption:          core.AISE,
			Integrity:           core.BonsaiMT,
			SwapSlots:           64,
			TreeUpdateWorkers:   4,
			TreeNodeCacheBlocks: 1024,
		},
	}
}

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"` // the enclosing (taller) rung; "" at the top
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps every rung's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// rung is one replay's per-class medians in microseconds.
type rung struct {
	name string
	p50  [nClasses]float64
	n    [nClasses]int
}

// replay runs ops against t and returns the rung. Any failure aborts: a
// rung that errs has no meaningful median.
func (tr *tracer) replay(name, parent string, t target, ops []op, sh *shadow, key uint64) (rung, error) {
	var lat [nClasses][]int64
	var firstErr error
	c := newConn(t, sh, key)
	obs := func(cls class, o op, t0, t1 time.Time, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s rung, %s op %d: %w", name, classNames[cls], o.seq, err)
		}
		lat[cls] = append(lat[cls], int64(t1.Sub(t0)))
		tr.spans = append(tr.spans, span{
			Name: name + "." + classNames[cls], Parent: parent, Op: o.seq,
			Start: int64(t0.Sub(tr.origin)), End: int64(t1.Sub(tr.origin)),
		})
	}
	for _, o := range ops {
		c.do(o, obs)
		if firstErr != nil {
			return rung{}, firstErr
		}
	}
	r := rung{name: name}
	for cls := range lat {
		r.p50[cls] = percentile(usOf(lat[cls]), 50)
		r.n[cls] = len(lat[cls])
	}
	return r, nil
}

// prefillTouched initialises only the units ops touch: the in-process rungs
// replay a fixed list, so the rest of the pool may stay vacant.
func prefillTouched(t target, sh *shadow, seed int64, ops []op) error {
	seen := make(map[uint32]bool)
	buf := make([]byte, pageSize)
	for _, o := range ops {
		if o.kind == opCheckpoint || seen[o.unit] {
			continue
		}
		seen[o.unit] = true
		po := op{kind: opWrite, unit: o.unit, n: pageSize}
		fillPayload(buf, prefillKey(seed), uint64(o.unit))
		if err := t.write(po, buf); err != nil {
			return fmt.Errorf("prefill unit %d: %w", o.unit, err)
		}
		sh.apply(po, buf)
	}
	return nil
}

// countingFS wraps the OS filesystem and counts what the persist layer
// does to it: flushes, and bytes written to WAL files and to everything.
type countingFS struct {
	persist.FS
	syncs, walBytes, allBytes atomic.Int64
}

func (c *countingFS) wrap(name string, f persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	base := name[strings.LastIndexByte(name, '/')+1:]
	return &countingFile{File: f, fs: c, wal: strings.HasPrefix(base, "wal-")}, nil
}
func (c *countingFS) Create(name string) (persist.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f, err)
}
func (c *countingFS) OpenFile(name string) (persist.File, error) {
	f, err := c.FS.OpenFile(name)
	return c.wrap(name, f, err)
}
func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}
func (c *countingFS) reset() {
	c.syncs.Store(0)
	c.walBytes.Store(0)
	c.allBytes.Store(0)
}

type countingFile struct {
	persist.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) count(n int) {
	f.fs.allBytes.Add(int64(n))
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
}
func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.count(n)
	return n, err
}
func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.count(n)
	return n, err
}
func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// ladderResult is everything the in-process rungs measured.
type ladderResult struct {
	rungs    []rung
	verifyMS float64 // Pool.Verify over the whole in-process pool
	// Counting-FS figures over the tallest durable rung's replay (persist,
	// or tenant where the aux journal flushes too), with its write count.
	syncs, walBytes, allBytes int64
	writes                    int
}

// countFS records what the counting FS saw during the rung just climbed.
func (res *ladderResult) countFS(cfs *countingFS) {
	r := res.rungs[len(res.rungs)-1]
	res.syncs, res.walBytes, res.allBytes = cfs.syncs.Load(), cfs.walBytes.Load(), cfs.allBytes.Load()
	res.writes = r.n[clsWrite] + r.n[clsCowWrite]
}

// rungNames lists the workload's rungs bottom to top; a rung's spans name
// the next taller rung as their parent.
func rungNames(w *workload) []string {
	names := []string{"core", "shard"}
	if w.durable {
		names = append(names, "persist")
	}
	if w.tenants > 0 {
		names = append(names, "tenant")
	}
	return append(names, "server", "daemon")
}

func parentRung(w *workload, name string) string {
	names := rungNames(w)
	for i, n := range names[:len(names)-1] {
		if n == name {
			return names[i+1]
		}
	}
	return ""
}

// inProcessRungs climbs from bare controllers to an in-process server on a
// loopback listener. One pool carries the shard, persist, tenant and
// server rungs: the commit hook is lifted off for the shard rung and put
// back for the persist rung, so a rung differs from the one below by
// exactly the layer it adds. The pool is deliberately not Closed — Close
// sweeps the whole pool on one goroutine, seconds of work the process exit
// makes pointless.
func (tr *tracer) inProcessRungs(h *harness, w *workload, seed int64, ops []op) (*ladderResult, error) {
	res := &ladderResult{}
	// Below the tenant layer a unit is a plain pool page: the flat rungs of
	// the tenant workload replay its reads and writes on pages 0..units-1.
	climb := func(name string, t target, sh *shadow) error {
		r, err := tr.replay(name, parentRung(w, name), t, ops, sh, payloadKey(seed, 0))
		res.rungs = append(res.rungs, r)
		return err
	}

	// Rung 1: core.SecureMemory.Read/Write on the pool's shard geometry.
	cfg := poolConfig(w, nil)
	perShard := cfg.Core
	perShard.DataBytes /= uint64(cfg.Shards)
	ct := coreTarget{}
	for i := 0; i < cfg.Shards; i++ {
		sm, err := core.New(perShard)
		if err != nil {
			return nil, err
		}
		ct.sms = append(ct.sms, sm)
	}
	sh := newShadow(w.units())
	if err := prefillTouched(ct, sh, seed, ops); err != nil {
		return nil, err
	}
	if err := climb("core", ct, sh); err != nil {
		return nil, err
	}

	// The pool, built the way the daemon builds it (through the store when
	// durable, so the hook and the aux journal are the real ones).
	svc := obs.NewService(shard.DefaultShards, obs.DefaultRingSize)
	cfg = poolConfig(w, svc)
	var (
		pool  *shard.Pool
		store *persist.Store
		err   error
	)
	cfs := &countingFS{FS: persist.OSFS()}
	if w.durable {
		dir, err := h.newDataDir()
		if err != nil {
			return nil, err
		}
		if store, err = persist.Open(persist.Options{Dir: dir, Key: demoKey, Fsync: fsyncPolicy, FS: cfs, Obs: svc}); err != nil {
			return nil, err
		}
		if w.tenants > 0 {
			store.EnableAux()
		}
		if pool, _, err = store.Recover(cfg); err != nil {
			return nil, err
		}
		pool.SetCommitHook(nil)
	} else if pool, err = shard.New(cfg); err != nil {
		return nil, err
	}
	pt := poolTarget{pool}
	sh = newShadow(w.units())
	if err := prefillTouched(pt, sh, seed, ops); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := pool.Verify(context.Background()); err != nil {
		return nil, fmt.Errorf("in-process pool verify: %w", err)
	}
	res.verifyMS = float64(time.Since(t0)) / 1e6

	// Rung 2: shard.Pool.Read/Write (queue handoff, batching, coalescing).
	if err := climb("shard", pt, sh); err != nil {
		return nil, err
	}

	// Rung 3: the same pool with the persist.Store commit hook in place.
	if w.durable {
		pool.SetCommitHook(store)
		cfs.reset()
		if err := climb("persist", pt, sh); err != nil {
			return nil, err
		}
		res.countFS(cfs)
	}

	// Rung 4: tenant.Service over the pool (page tables, COW, PRD swap).
	opts := server.Options{Obs: svc}
	var tt *tenantTarget
	if w.tenants > 0 {
		tsvc, err := tenant.Recover(tenant.Config{Pool: pool, ResidentPages: 64, Journal: store, Obs: svc}, store.TakeAuxRecovery())
		if err != nil {
			return nil, err
		}
		store.SetAuxSource(tsvc.FreezeOps, tsvc.ThawOps, tsvc.SnapshotState)
		tt = &tenantTarget{tenantOps: svcTenantOps{tsvc}, ppt: w.pagesPerTenant}
		for i := 0; i < w.tenants; i++ {
			id, err := tsvc.Create(context.Background(), w.pagesPerTenant, 0)
			if err != nil {
				return nil, err
			}
			tt.ids = append(tt.ids, id)
		}
		sh = newShadow(w.units())
		if err := prefillTouched(tt, sh, seed, ops); err != nil {
			return nil, err
		}
		cfs.reset()
		if err := climb("tenant", tt, sh); err != nil {
			return nil, err
		}
		res.countFS(cfs)
		opts.Tenants = tsvc
	}

	// Rung 5: server.New(pool) on a loopback listener plus a client.
	if store != nil {
		opts.Checkpoint = func() (string, int64, error) {
			if err := store.Checkpoint(); err != nil {
				return "", 0, err
			}
			path, n := store.LastSnapshot()
			return path, n, nil
		}
	}
	srv := server.New(pool, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) // returns when ln closes below
	cl, err := server.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if tt != nil {
		err = climb("server", &tenantTarget{tenantOps: wireTenantOps{cl}, ids: tt.ids, ppt: tt.ppt}, sh)
	} else {
		err = climb("server", wireFlat{cl}, sh)
	}
	cl.Close()
	ln.Close()
	if err != nil {
		return nil, err
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return nil, fmt.Errorf("closing the in-process store: %w", err)
		}
	}
	return res, nil
}
