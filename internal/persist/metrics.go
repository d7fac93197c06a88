package persist

import (
	"time"

	"aisebmt/internal/obs"
)

// storeMetrics holds the durability layer's instruments. All methods are
// nil-receiver-safe so instrumentation sites read as straight-line code
// whether observability is wired or not.
//
// Commit-stage costs (WAL append, fsync, bytes) are not recorded here
// directly: Commit runs synchronously on a shard worker goroutine, so it
// deposits an obs.CommitStages in the Service's per-shard mailbox and the
// worker — same goroutine, right after Commit returns — folds the stages
// into its own histograms and the request's trace span.
type storeMetrics struct {
	svc *obs.Service

	ckptDur    *obs.Histogram // checkpoint cut duration
	ckptBytes  *obs.Counter   // snapshot bytes written across checkpoints
	snapBytes  *obs.Gauge     // last snapshot size
	epoch      *obs.Gauge     // current durable epoch
	failed     *obs.Gauge     // 1 once the store latched fail-closed
	recoverDur *obs.Gauge     // last recovery duration
	recoverRec *obs.Gauge     // WAL records replayed by last recovery
	phases     [7]*obs.Gauge  // last recovery's phases, in phaseSeries order
	repairDur  *obs.Histogram // per-attempt online repair duration
}

// newStoreMetrics registers the durability instruments.
func newStoreMetrics(svc *obs.Service) *storeMetrics {
	reg := svc.Reg
	lat := obs.LatencyBucketsUS()
	m := &storeMetrics{
		svc: svc,
		ckptDur: reg.Histogram("secmemd_checkpoint_duration_us",
			"Verified snapshot + WAL truncation duration, microseconds.", lat),
		ckptBytes: reg.Counter("secmemd_checkpoint_bytes_total",
			"Snapshot bytes written by checkpoints."),
		snapBytes: reg.Gauge("secmemd_snapshot_bytes",
			"Size of the most recent verified snapshot."),
		epoch: reg.Gauge("secmemd_checkpoint_epoch",
			"Current durable epoch (advances per checkpoint)."),
		failed: reg.Gauge("secmemd_store_failed",
			"1 once the store latched fail-closed on a durability fault."),
		recoverDur: reg.Gauge("secmemd_recovery_duration_us",
			"Duration of the last crash recovery, microseconds."),
		recoverRec: reg.Gauge("secmemd_recovery_replayed_records",
			"WAL records applied by the last crash recovery."),
		repairDur: reg.Histogram("secmemd_repair_duration_us",
			"Online shard repair attempt duration, microseconds.", lat),
	}
	for i, ph := range phaseSeries(RecoveryPhases{}) {
		m.phases[i] = reg.Gauge("secmemd_persist_recovery_phase_us",
			"Wall-clock duration of one phase of the last crash recovery, microseconds (snapshot_read is the anchor read plus the snapshot's open and framing walk; slowest_* are the slowest shard's share of rebuild, its decode including the read of its section).",
			"phase", ph.label)
	}
	return m
}

// labelledPhase is one recovery phase under its gauge label.
type labelledPhase struct {
	label string
	d     time.Duration
}

// phaseSeries lists p's phases in the order their gauges are registered.
func phaseSeries(p RecoveryPhases) [7]labelledPhase {
	return [7]labelledPhase{{"snapshot_read", p.SnapshotRead}, {"scan", p.Scan}, {"rebuild", p.Rebuild},
		{"slowest_decode", p.SlowestDecode}, {"slowest_replay", p.SlowestReplay}, {"slowest_sweep", p.SlowestSweep}, {"reopen", p.Reopen}}
}

// commitStages deposits one group commit's stage costs in the Service
// mailbox for shard i (the worker drains it right after Commit returns).
func (m *storeMetrics) commitStages(i int, appendNs, fsyncNs, bytes int64) {
	if m == nil {
		return
	}
	m.svc.SetCommitStages(i, obs.CommitStages{AppendNs: appendNs, FsyncNs: fsyncNs, Bytes: bytes})
}

// observeCheckpoint records one completed checkpoint.
func (m *storeMetrics) observeCheckpoint(d time.Duration, epoch uint64, bytes int64) {
	if m == nil {
		return
	}
	m.ckptDur.Observe(uint64(d.Microseconds()))
	m.ckptBytes.Add(uint64(bytes))
	m.snapBytes.Set(bytes)
	m.epoch.Set(int64(epoch))
}

// observeRecovery records the completed crash recovery.
func (m *storeMetrics) observeRecovery(info RecoveryInfo) {
	if m == nil {
		return
	}
	m.recoverDur.Set(info.Elapsed.Microseconds())
	m.recoverRec.Set(int64(info.Replayed))
	for i, ph := range phaseSeries(info.Phases) {
		m.phases[i].Set(ph.d.Microseconds())
	}
	m.epoch.Set(int64(info.Epoch))
}

// observeRepair records one repair attempt's duration.
func (m *storeMetrics) observeRepair(d time.Duration) {
	if m == nil {
		return
	}
	m.repairDur.Observe(uint64(d.Microseconds()))
}

// markFailed records the fail-closed latch.
func (m *storeMetrics) markFailed() {
	if m == nil {
		return
	}
	m.failed.Set(1)
}
