package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"aisebmt/internal/encrypt"
	"aisebmt/internal/integrity"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// layerMetrics are the per-layer metrics of the traced run, in print
// order. Every workload reports every one; a layer the workload does not
// exercise reads 0. BENCHMARK.json's per_layer list is this table.
var layerMetrics = []struct{ name, unit, better string }{
	{"daemon.read_p50_us", "us", "lower"},
	{"daemon.write_p50_us", "us", "lower"},
	{"server.codec_us", "us", "lower"},
	{"server.read_self_us", "us", "lower"},
	{"server.write_self_us", "us", "lower"},
	{"client.encode_us", "us", "lower"},
	{"client.wait_us", "us", "lower"},
	{"client.decode_us", "us", "lower"},
	{"daemon.start_ms", "ms", "lower"},
	{"daemon.cpu_sys_frac", "frac", "lower"},
	{"shard.read_self_us", "us", "lower"},
	{"shard.write_self_us", "us", "lower"},
	{"shard.ops_per_batch", "count", "higher"},
	{"shard.coalesced_frac", "frac", "higher"},
	{"shard.rejected", "count", "lower"},
	{"shard.verify_ms", "ms", "lower"},
	{"core.read_us", "us", "lower"},
	{"core.write_us", "us", "lower"},
	{"core.pads_per_op", "count", "lower"},
	{"core.macs_per_op", "count", "lower"},
	{"encrypt.pad_ns", "ns", "lower"},
	{"encrypt.block_ns", "ns", "lower"},
	{"integrity.mac_verify_ns", "ns", "lower"},
	{"integrity.update_batch_us", "us", "lower"},
	{"integrity.nodes_hashed_per_write", "count", "lower"},
	{"integrity.coalesced_frac", "frac", "higher"},
	{"integrity.wb_hit_frac", "frac", "higher"},
	{"persist.read_self_us", "us", "lower"},
	{"persist.write_self_us", "us", "lower"},
	{"persist.fsyncs_per_write", "count", "lower"},
	{"persist.wal_bytes_per_user_byte", "count", "lower"},
	{"persist.disk_bytes_per_user_byte", "count", "lower"},
	{"persist.checkpoint_ms", "ms", "lower"},
	{"persist.recover_ms", "ms", "lower"},
	{"persist.replayed_records", "count", "lower"},
	{"tenant.read_self_us", "us", "lower"},
	{"tenant.write_self_us", "us", "lower"},
	{"tenant.fork_us", "us", "lower"},
	{"tenant.cow_write_us", "us", "lower"},
	{"tenant.destroy_us", "us", "lower"},
	{"tenant.fault_frac", "frac", "lower"},
	{"tenant.swap_outs_per_op", "count", "lower"},
	{"tenant.recover_ms", "ms", "lower"},
	{"vm.tlb_hit_frac", "frac", "higher"},
	{"client.read_p99_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.max_us", "us", "lower"},
	{"obs.trace_overhead_us", "us", "lower"},
	{"budget.read_residual_us", "us", "lower"},
	{"budget.write_residual_us", "us", "lower"},
}

// ladderList generates the op list every rung replays: the first n reads,
// writes and fork cycles of the workload's one-connection stream.
func ladderList(w *workload, seed int64) []op {
	st := newStream(w, seed, 0, 1)
	ops := make([]op, w.ladderOps)
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

// ratio is a/b, or 0 when the layer did no such work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceWorkload is the traced run: the in-process rungs, the real daemon
// on one connection untraced and traced, a short two-connection load for
// the wire-op counters and the tails, and on durable workloads a crash
// whose data dir is recovered in-process. It is a separate invocation and
// no part of the gated end-to-end time.
func traceWorkload(h *harness, w *workload, sp shape, md meta) (resultLine, error) {
	tr := &tracer{origin: time.Now()}
	m := map[string]float64{}
	ops := ladderList(w, sp.seed)

	lad, err := tr.inProcessRungs(h, w, sp.seed, ops)
	if err != nil {
		return resultLine{}, err
	}
	progress("%s: in-process rungs done", w.name)
	if err := microTimers(w, m); err != nil {
		return resultLine{}, err
	}

	// The daemon rung reuses the e2e set-up (both connections prefill), then
	// drives connection 0 alone through the same op list, twice.
	s, _, first, err := setup(h, w, sp.seed)
	if err != nil {
		return resultLine{}, fmt.Errorf("setup: %w", err)
	}
	m["daemon.start_ms"] = float64(first) / 1e6
	key := payloadKey(sp.seed, 0)
	untraced, err := tr.replay("daemon", "", s.target(0), ops, s.sh, key)
	if err != nil {
		return resultLine{}, err
	}
	s.clients[0].EnableTrace(1)
	traced, err := tr.replay("daemon_traced", "", s.target(0), ops, s.sh, key)
	if err != nil {
		return resultLine{}, err
	}
	s.clients[0].DisableTrace()
	s.tally.attempted += 2 * len(ops)
	progress("%s: daemon rung done", w.name)

	// Counters through the public wire ops, around a short measured phase.
	lsp := sp
	lsp.warm, lsp.slices = 0, max(sp.slices/2, 1) // no warm-up: every request between the two Stats calls is counted
	before, err := s.clients[0].Stats()
	if err != nil {
		return resultLine{}, err
	}
	tBefore, err := s.tenantVM()
	if err != nil {
		return resultLine{}, err
	}
	lr, err := s.load(lsp)
	if err != nil {
		return resultLine{}, fmt.Errorf("measured phase: %w", err)
	}
	after, err := s.clients[0].Stats()
	if err != nil {
		return resultLine{}, err
	}
	tAfter, err := s.tenantVM()
	if err != nil {
		return resultLine{}, err
	}
	progress("%s: counted phase done", w.name)

	var lat [nClasses][]int64
	var requests int
	for _, conn := range lr.slices {
		for _, sl := range conn {
			requests += sl.requests
			for c := range lat {
				lat[c] = append(lat[c], sl.lat[c]...)
			}
		}
	}
	reqs := float64(after.Enqueued - before.Enqueued) // pool requests, the shard layer's unit
	dc := func(f func(shard.ServiceStats) uint64) float64 { return float64(f(after) - f(before)) }
	writes := float64(len(lat[clsWrite]) + len(lat[clsCowWrite]))
	m["shard.ops_per_batch"] = ratio(dc(func(s shard.ServiceStats) uint64 { return s.BatchedOps }), dc(func(s shard.ServiceStats) uint64 { return s.Batches }))
	m["shard.coalesced_frac"] = ratio(dc(func(s shard.ServiceStats) uint64 { return s.CoalescedWrites }), reqs)
	m["shard.rejected"] = dc(func(s shard.ServiceStats) uint64 { return s.Rejected + s.Expired })
	m["core.pads_per_op"] = ratio(dc(func(s shard.ServiceStats) uint64 { return s.Core.PadGens }), float64(requests))
	m["core.macs_per_op"] = ratio(dc(func(s shard.ServiceStats) uint64 { return s.Core.MACOps }), float64(requests))
	hashed := dc(func(s shard.ServiceStats) uint64 { return s.Core.TreeNodesHashed })
	coalesced := dc(func(s shard.ServiceStats) uint64 { return s.Core.TreeNodesCoalesced })
	m["integrity.nodes_hashed_per_write"] = ratio(hashed, writes)
	m["integrity.coalesced_frac"] = ratio(coalesced, hashed+coalesced)
	wbHits := dc(func(s shard.ServiceStats) uint64 { return s.Core.TreeWBHits })
	m["integrity.wb_hit_frac"] = ratio(wbHits, wbHits+dc(func(s shard.ServiceStats) uint64 { return s.Core.TreeWBMisses }))
	tenantReqs := float64(len(lat[clsRead]) + len(lat[clsWrite]) + len(lat[clsCowWrite]) + len(lat[clsCowRead]))
	m["tenant.fault_frac"] = ratio(float64(tAfter.PageFaults-tBefore.PageFaults), tenantReqs)
	m["tenant.swap_outs_per_op"] = ratio(float64(tAfter.SwapOuts-tBefore.SwapOuts), tenantReqs)
	tlbHits := float64(tAfter.TLBHits - tBefore.TLBHits)
	m["vm.tlb_hit_frac"] = ratio(tlbHits, tlbHits+float64(tAfter.TLBMisses-tBefore.TLBMisses))
	n := len(lr.cpuTicks) - 1
	m["daemon.cpu_sys_frac"] = ratio(float64(lr.sysTicks[n]-lr.sysTicks[0]), float64(lr.cpuTicks[n]-lr.cpuTicks[0]))
	rd, wr := usOf(lat[clsRead]), usOf(lat[clsWrite])
	m["client.read_p99_us"] = percentile(rd, 99)
	m["client.write_p99_us"] = percentile(wr, 99)
	for _, l := range lat {
		if us := usOf(l); len(us) > 0 {
			m["client.max_us"] = max(m["client.max_us"], us[len(us)-1])
		}
	}
	m["persist.checkpoint_ms"] = percentile(usOf(lat[clsCheckpoint]), 50) / 1e3

	// Crash and recover in-process, so recovery's own phases are timed by
	// the layers that run them.
	if w.durable {
		if _, err := s.crashWrites(sp, 0); err != nil {
			return resultLine{}, err
		}
		s.closeClients()
		s.d.kill()
		if err := recoverInProcess(w, s.dataDir, m); err != nil {
			return resultLine{}, err
		}
	} else {
		s.closeClients()
		if err := s.d.term(); err != nil {
			return resultLine{}, err
		}
	}
	progress("%s: recovery done", w.name)

	// The ladder: self time is a rung's median minus the rung below.
	rungs := append(lad.rungs, untraced)
	byName := map[string]rung{}
	for _, r := range rungs {
		byName[r.name] = r
	}
	self := func(name string, cls class) float64 {
		names := rungNames(w)
		for i, nme := range names {
			if nme == name && i > 0 {
				return byName[name].p50[cls] - byName[names[i-1]].p50[cls]
			}
		}
		return 0
	}
	m["daemon.read_p50_us"], m["daemon.write_p50_us"] = untraced.p50[clsRead], untraced.p50[clsWrite]
	m["core.read_us"], m["core.write_us"] = byName["core"].p50[clsRead], byName["core"].p50[clsWrite]
	for _, layer := range []string{"shard", "persist", "tenant", "server"} {
		if _, ok := byName[layer]; ok {
			m[layer+".read_self_us"], m[layer+".write_self_us"] = self(layer, clsRead), self(layer, clsWrite)
		}
	}
	m["budget.read_residual_us"], m["budget.write_residual_us"] = self("daemon", clsRead), self("daemon", clsWrite)
	// One number for the tracing cost: the read/write mix of the workload.
	m["obs.trace_overhead_us"] = w.readFrac*(traced.p50[clsRead]-untraced.p50[clsRead]) +
		(1-w.readFrac)*(traced.p50[clsWrite]-untraced.p50[clsWrite])
	if t, ok := byName["tenant"]; ok {
		m["tenant.fork_us"], m["tenant.cow_write_us"], m["tenant.destroy_us"] = t.p50[clsFork], t.p50[clsCowWrite], t.p50[clsDestroy]
	}
	m["client.wait_us"] = w.readFrac*untraced.p50[clsRead] + (1-w.readFrac)*untraced.p50[clsWrite] - m["client.encode_us"] - m["client.decode_us"]
	m["shard.verify_ms"] = lad.verifyMS
	m["persist.fsyncs_per_write"] = ratio(float64(lad.syncs), float64(lad.writes))
	m["persist.wal_bytes_per_user_byte"] = ratio(float64(lad.walBytes), float64(lad.writes*w.opBytes))
	m["persist.disk_bytes_per_user_byte"] = ratio(float64(lad.allBytes), float64(lad.writes*w.opBytes))

	// Print the ladder, then every per-layer metric by name and unit.
	fmt.Printf("== %s (trace, seed %d, %d ops per rung) ==\n", w.name, sp.seed, len(ops))
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "rung", "read_p50_us", "read_self", "write_p50_us", "write_self")
	for _, r := range rungs {
		fmt.Printf("%-10s %12.2f %12.2f %12.2f %12.2f\n", r.name, r.p50[clsRead], selfOrAll(r, self, clsRead), r.p50[clsWrite], selfOrAll(r, self, clsWrite))
	}
	fmt.Printf("%-10s %12.2f %12s %12.2f\n", "traced", traced.p50[clsRead], "", traced.p50[clsWrite])
	line := resultLine{Correct: s.tally.failed == 0, Attempted: s.tally.attempted, Failed: s.tally.failed, Metrics: map[string]metricValue{}}
	for _, lm := range layerMetrics {
		fmt.Printf("%-34s %14.4f %s\n", lm.name, m[lm.name], lm.unit)
		line.Metrics[lm.name] = metricValue{Value: m[lm.name], Unit: lm.unit}
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", s.tally.attempted, s.tally.failed)

	if err := writeJSON("trace-"+w.name+".json", map[string]any{"meta": md, "workload": w.name, "spans": tr.spans}); err != nil {
		return resultLine{}, err
	}
	return line, writeJSON("layers-"+w.name+".json", map[string]any{"meta": md, "workload": w.name, "metrics": m, "claim": nil})
}

// selfOrAll is a rung's self time; the bottom rung's is its whole median.
func selfOrAll(r rung, self func(string, class) float64, cls class) float64 {
	if r.name == "core" {
		return r.p50[cls]
	}
	return self(r.name, cls)
}

// tenantVM reads the vm counters through OpTenantStats (zero on flat
// workloads, which never touch the tenant layer).
func (s *session) tenantVM() (vmStats, error) {
	var st struct {
		VM vmStats `json:"vm"`
	}
	if s.ids == nil {
		return st.VM, nil
	}
	b, err := s.clients[0].TenantStats()
	if err != nil {
		return st.VM, err
	}
	return st.VM, json.Unmarshal(b, &st)
}

// vmStats is the part of tenant.Stats.VM the harness reads.
type vmStats struct {
	PageFaults, SwapOuts, TLBHits, TLBMisses uint64
}

// recoverInProcess opens the killed daemon's data dir with the public
// constructors and times each recovery phase where it runs.
func recoverInProcess(w *workload, dir string, m map[string]float64) error {
	svc := obs.NewService(shard.DefaultShards, obs.DefaultRingSize)
	store, err := persist.Open(persist.Options{Dir: dir, Key: demoKey, Fsync: fsyncPolicy, Obs: svc})
	if err != nil {
		return err
	}
	if w.tenants > 0 {
		store.EnableAux()
	}
	pool, info, err := store.Recover(poolConfig(w, svc))
	if err != nil {
		return fmt.Errorf("in-process recovery: %w", err)
	}
	m["persist.recover_ms"] = float64(info.Elapsed) / 1e6
	m["persist.replayed_records"] = float64(info.Replayed)
	if w.tenants > 0 {
		t0 := time.Now()
		if _, err := tenant.Recover(tenant.Config{Pool: pool, ResidentPages: 64, Journal: store}, store.TakeAuxRecovery()); err != nil {
			return fmt.Errorf("in-process tenant recovery: %w", err)
		}
		m["tenant.recover_ms"] = float64(time.Since(t0)) / 1e6
	}
	return store.Close()
}

// timeBatches runs f in batches of n calls and returns the median cost of
// one call in nanoseconds.
func timeBatches(batches, n int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// microTimers times single public functions of the codec, encrypt and
// integrity layers on the workload's op size. The timed calls' own results
// are dropped: they run on fixed well-formed inputs, and their correctness
// is the packages' tests' business.
func microTimers(w *workload, m map[string]float64) error {
	// Wire codec, in memory: a read is an empty request and an n-byte
	// reply, a write the reverse; the workload's mix weights the two.
	payload := make([]byte, w.opBytes)
	readQ, writeQ := &server.Request{Op: server.OpRead, Count: uint32(w.opBytes)}, &server.Request{Op: server.OpWrite, Data: payload}
	readP, writeP := &server.Response{Data: payload}, &server.Response{}
	var buf bytes.Buffer
	rdr := bytes.NewReader(nil)
	enc := func(q *server.Request) func() {
		return func() { buf.Reset(); server.EncodeRequest(&buf, q) }
	}
	dec := func(p *server.Response) func() {
		buf.Reset()
		server.EncodeResponse(&buf, p)
		frame := append([]byte(nil), buf.Bytes()...)
		return func() { rdr.Reset(frame); server.DecodeResponse(rdr) }
	}
	round := func(q *server.Request, p *server.Response) func() {
		return func() {
			buf.Reset()
			server.EncodeRequest(&buf, q)
			server.DecodeRequest(&buf)
			server.EncodeResponse(&buf, p)
			server.DecodeResponse(&buf)
		}
	}
	mix := func(rd, wr float64) float64 { return (w.readFrac*rd + (1-w.readFrac)*wr) / 1e3 }
	m["client.encode_us"] = mix(timeBatches(9, 2000, enc(readQ)), timeBatches(9, 2000, enc(writeQ)))
	m["client.decode_us"] = mix(timeBatches(9, 2000, dec(readP)), timeBatches(9, 2000, dec(writeP)))
	m["server.codec_us"] = mix(timeBatches(9, 2000, round(readQ, readP)), timeBatches(9, 2000, round(writeQ, writeP)))

	// encrypt: one AISE pad, one 64-byte block (four pads and the XOR).
	cm, err := encrypt.NewCounterMode(demoKey, encrypt.AISESeed{})
	if err != nil {
		return err
	}
	var pad [16]byte
	var src, dst mem.Block
	in := encrypt.SeedInput{LPID: 7, Counter: 3}
	m["encrypt.pad_ns"] = timeBatches(9, 20000, func() { in.Counter++; cm.PadInto(&pad, in) })
	m["encrypt.block_ns"] = timeBatches(9, 5000, func() { in.Counter++; cm.EncryptBlock(&dst, &src, in) })

	// integrity: one data-MAC verification, and one 64-leaf batched tree
	// update over a tree the size of one shard's counter region.
	leaves := uint64(w.memMiB) << 20 / shard.DefaultShards / pageSize
	region := mem.Region{Name: "ctr", Base: 0, Size: leaves * blockSize}
	treeBytes, err := integrity.TreeStorageBytes(leaves, 128)
	if err != nil {
		return err
	}
	mm := mem.New(region.Size + treeBytes + 1<<20)
	macs, err := integrity.NewDataMACStore(mm, demoKey, 128, layout.Addr(region.Size+treeBytes), 0)
	if err != nil {
		return err
	}
	macs.Update(0, &src, 7, 3)
	m["integrity.mac_verify_ns"] = timeBatches(9, 5000, func() { macs.Verify(0, &src, 7, 3) })
	tree, err := integrity.NewTree(mm, demoKey, 128, []mem.Region{region}, layout.Addr(region.Size))
	if err != nil {
		return err
	}
	tree.EnableNodeCache(1024)
	tree.Build()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]layout.Addr, 64)
	m["integrity.update_batch_us"] = timeBatches(9, 50, func() {
		for i := range addrs {
			addrs[i] = layout.Addr(rng.Int63n(int64(leaves))) * blockSize
		}
		tree.UpdateBatch(addrs, 4)
	}) / 1e3
	return nil
}
