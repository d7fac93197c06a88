package shard

import (
	"fmt"
	"io"
	"sync/atomic"

	"aisebmt/internal/core"
	"aisebmt/internal/obs"
)

// poolMetrics holds the pool's registered instruments. All methods are
// nil-receiver-safe so the worker hot path reads as straight-line code
// whether observability is wired or not.
type poolMetrics struct {
	svc *obs.Service

	queueWait    *obs.Histogram // µs a request waited before its worker picked it up
	batchSize    *obs.Histogram // ops drained per worker wakeup
	commitAppend *obs.Histogram // µs of WAL append inside the group commit
	commitFsync  *obs.Histogram // µs of WAL fsync inside the group commit
	commitBytes  *obs.Counter   // WAL bytes appended by group commits

	transitions [StateDown + 1]*obs.Counter // shard state-machine entries by destination
}

// newPoolMetrics registers the pool's instruments and scrape-time views.
func newPoolMetrics(svc *obs.Service, p *Pool) *poolMetrics {
	reg := svc.Reg
	m := &poolMetrics{svc: svc}
	lat := obs.LatencyBucketsUS()
	m.queueWait = reg.Histogram("secmemd_queue_wait_us",
		"Time requests spent queued before a shard worker drained them, microseconds.", lat)
	m.batchSize = reg.Histogram("secmemd_batch_ops",
		"Requests executed per worker wakeup (one lock acquisition).",
		[]uint64{1, 2, 4, 8, 16, 32, 64})
	m.commitAppend = reg.Histogram("secmemd_wal_append_us",
		"WAL append time inside the group commit, microseconds.", lat)
	m.commitFsync = reg.Histogram("secmemd_wal_fsync_us",
		"WAL fsync time inside the group commit, microseconds (0 buckets under batched fsync).", lat)
	m.commitBytes = reg.Counter("secmemd_wal_commit_bytes_total",
		"WAL bytes appended by group commits.")
	for st := StateServing; st <= StateDown; st++ {
		m.transitions[st] = reg.Counter("secmemd_shard_transitions_total",
			"Shard fault-state-machine transitions by destination state.",
			"state", st.String())
	}
	// Service counters live in the pool already; expose them as scrape-time
	// reads instead of double-counting on the hot path.
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"secmemd_pool_enqueued_total", "Requests accepted into a shard queue.", &p.svc.enqueued},
		{"secmemd_pool_rejected_total", "Requests whose context ended while queueing or awaiting a result.", &p.svc.rejected},
		{"secmemd_pool_expired_total", "Requests answered with a dead context at execution time.", &p.svc.expired},
		{"secmemd_pool_batches_total", "Worker batch drains.", &p.svc.batches},
		{"secmemd_pool_batched_ops_total", "Requests executed through batches.", &p.svc.batchedOps},
		{"secmemd_pool_coalesced_writes_total", "Writes dropped as superseded within a batch.", &p.svc.coalescedWrites},
		{"secmemd_pool_faults_total", "Quarantine latches and cordons.", &p.svc.faults},
		{"secmemd_pool_repairs_total", "Shards returned to service.", &p.svc.repairs},
		{"secmemd_pool_repair_failures_total", "Failed repair attempts.", &p.svc.repairFailures},
		{"secmemd_pool_quarantine_refused_total", "Requests refused by a latched shard.", &p.svc.quarRefused},
	} {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(v.Load()) })
	}
	for i := range p.shards {
		sh := p.shards[i]
		reg.GaugeFunc("secmemd_shard_queue_depth",
			"Requests currently queued on the shard.",
			func() float64 { return float64(len(sh.reqs)) },
			"shard", fmt.Sprintf("%d", i))
	}
	return m
}

// observeBatch records one worker drain.
func (m *poolMetrics) observeBatch(n int) {
	if m == nil {
		return
	}
	m.batchSize.Observe(uint64(n))
}

// observeQueueWait records one request's queue wait in nanoseconds.
func (m *poolMetrics) observeQueueWait(ns int64) {
	if m == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	m.queueWait.Observe(uint64(ns) / 1e3)
}

// observeCommit records the persist layer's group-commit stage costs.
func (m *poolMetrics) observeCommit(cs obs.CommitStages) {
	if m == nil || (cs.AppendNs == 0 && cs.FsyncNs == 0 && cs.Bytes == 0) {
		return
	}
	m.commitAppend.Observe(uint64(cs.AppendNs) / 1e3)
	m.commitFsync.Observe(uint64(cs.FsyncNs) / 1e3)
	m.commitBytes.Add(uint64(cs.Bytes))
}

// transition records a shard state-machine entry into st.
func (m *poolMetrics) transition(st ShardState) {
	if m == nil || st < StateServing || st > StateDown {
		return
	}
	m.transitions[st].Inc()
}

// ring returns shard i's trace ring (nil when observability is off).
func (m *poolMetrics) ring(i int) *obs.Ring {
	if m == nil {
		return nil
	}
	return m.svc.Ring(i)
}

// takeCommitStages drains the persist layer's stage mailbox for shard i.
func (m *poolMetrics) takeCommitStages(i int) obs.CommitStages {
	if m == nil {
		return obs.CommitStages{}
	}
	return m.svc.TakeCommitStages(i)
}

// TraceOpName names the Op field of trace records published by pool
// workers (records carry the pool's internal op kinds, not wire opcodes).
func TraceOpName(op uint8) string { return kindName(opKind(op)) }

// TraceStatusName names the Status field of pool trace records.
func TraceStatusName(st uint8) string {
	if st == 0 {
		return "ok"
	}
	return "error"
}

// CoreStats snapshots every shard controller's counters. Callers pay one
// brief lock acquisition per shard; scrape-time consumers (WriteMetrics,
// the tenant layer's re-encryption counters) share it.
func (p *Pool) CoreStats() []core.Stats {
	per := make([]core.Stats, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		per[i] = sh.sm.Stats()
		sh.mu.Unlock()
	}
	return per
}

// QueueDepths snapshots each shard's current queue occupancy.
func (p *Pool) QueueDepths() []int {
	out := make([]int, len(p.shards))
	for i, sh := range p.shards {
		out[i] = len(sh.reqs)
	}
	return out
}

// WriteMetrics appends the pool's scrape-time Prometheus section: shard
// fault states (one-hot gauges) and every controller counter from
// core.Stats, per shard. The /metrics handler concatenates this after the
// registry's exposition; the chaos harness calls it directly so its
// assertions and a live scrape see identical bytes.
func (p *Pool) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP secmemd_shard_state Shard fault-domain state (one-hot by state label).\n# TYPE secmemd_shard_state gauge\n")
	states := p.ShardStates()
	for i, cur := range states {
		for st := StateServing; st <= StateDown; st++ {
			v := 0
			if st == cur {
				v = 1
			}
			fmt.Fprintf(w, "secmemd_shard_state{shard=\"%d\",state=%q} %d\n", i, st.String(), v)
		}
	}
	type field struct {
		name, help string
		get        func(cs core.Stats) uint64
	}
	fields := []field{
		{"secmemd_core_block_reads_total", "Controller block fetches.", func(cs core.Stats) uint64 { return cs.BlockReads }},
		{"secmemd_core_block_writes_total", "Controller block writebacks.", func(cs core.Stats) uint64 { return cs.BlockWrites }},
		{"secmemd_core_pad_gens_total", "Counter-mode pad generations performed (a verification sweep decrypts nothing and generates none).", func(cs core.Stats) uint64 { return cs.PadGens }},
		{"secmemd_core_mac_ops_total", "HMAC computations performed: data MACs plus tree node hashes.", func(cs core.Stats) uint64 { return cs.MACOps }},
		{"secmemd_core_tree_updates_total", "Merkle tree leaf updates issued: one per written page span for the Bonsai counter block, one per data block under the standard tree.", func(cs core.Stats) uint64 { return cs.TreeUpdates }},
		{"secmemd_core_tree_verifies_total", "Merkle tree verification walks performed: one per fetched page span for the Bonsai counter block, one per data block under the standard tree.", func(cs core.Stats) uint64 { return cs.TreeVerifies }},
		{"secmemd_core_page_reencrypts_total", "Minor-counter overflow page re-encryptions.", func(cs core.Stats) uint64 { return cs.PageReencrypts }},
		{"secmemd_core_swap_outs_total", "Pages swapped out.", func(cs core.Stats) uint64 { return cs.SwapOuts }},
		{"secmemd_core_swap_ins_total", "Pages swapped in.", func(cs core.Stats) uint64 { return cs.SwapIns }},
		{"secmemd_core_ctr_cache_hits_total", "Counter-cache model hits, per block accessed: a span of n blocks counts one lookup and n-1 hits.", func(cs core.Stats) uint64 { return cs.CtrCacheHits }},
		{"secmemd_core_ctr_cache_misses_total", "Counter-cache model misses, per block accessed: only the lookup that opens a span can miss.", func(cs core.Stats) uint64 { return cs.CtrCacheMisses }},
		{"secmemd_core_tree_node_cache_hits_total", "Tree-node-cache model hits over the nodes of the walks performed.", func(cs core.Stats) uint64 { return cs.TreeNodeCacheHits }},
		{"secmemd_core_tree_node_cache_misses_total", "Tree-node-cache model misses over the nodes of the walks performed.", func(cs core.Stats) uint64 { return cs.TreeNodeCacheMiss }},

		// The batched tree-update engine's real work (not the cache model
		// above): one family per counter so dashboards can derive the
		// coalescing ratio and write-back hit rate per shard.
		{"secmemd_integrity_tree_batches_total", "Coalesced Merkle tree update passes committed.", func(cs core.Stats) uint64 { return cs.TreeBatches }},
		{"secmemd_integrity_batched_leaves_total", "Leaf updates submitted to batched tree passes (pre-coalescing).", func(cs core.Stats) uint64 { return cs.TreeBatchedLeaves }},
		{"secmemd_integrity_nodes_hashed_total", "Tree node MACs computed by batched passes.", func(cs core.Stats) uint64 { return cs.TreeNodesHashed }},
		{"secmemd_integrity_nodes_coalesced_total", "Tree node hashes saved versus serial leaf-to-root replay.", func(cs core.Stats) uint64 { return cs.TreeNodesCoalesced }},
		{"secmemd_integrity_node_cache_hits_total", "Write-back tree node cache hits.", func(cs core.Stats) uint64 { return cs.TreeWBHits }},
		{"secmemd_integrity_node_cache_misses_total", "Write-back tree node cache misses.", func(cs core.Stats) uint64 { return cs.TreeWBMisses }},
		{"secmemd_integrity_node_writebacks_total", "Dirty tree node blocks written back to memory (evictions and flushes).", func(cs core.Stats) uint64 { return cs.TreeWBWritebacks }},
		{"secmemd_integrity_node_flushes_total", "Explicit tree node cache flushes (checkpoint seals and barriers).", func(cs core.Stats) uint64 { return cs.TreeWBFlushes }},
	}
	per := p.CoreStats()
	for _, f := range fields {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for i := range per {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", f.name, i, f.get(per[i]))
		}
	}
}
