// Package persist makes the secure-memory service durable: it gives a
// shard.Pool a per-shard write-ahead log with group commit, periodic
// verified snapshots with WAL truncation, and a crash-recovery path that
// replays the log over the latest snapshot and re-verifies the Bonsai
// tree roots before the pool serves traffic.
//
// The trust model extends the paper's: the Global Page Counter and tree
// roots live in simulated on-chip non-volatile storage (the sealed anchor
// and WAL head files, authenticated under a key derived from the
// processor key), while the snapshot body and WAL records are untrusted
// at-rest storage. Any offline modification — a flipped byte in the
// snapshot or log, a forged record, a deleted committed tail — is
// detected at recovery, which then fails closed with a distinct error
// rather than serving doubtful state.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/obs"
	"aisebmt/internal/shard"
)

// Policy selects when WAL appends reach stable storage.
type Policy int

// Fsync policies, strongest first.
const (
	// FsyncAlways syncs the log and seals its head before each batch is
	// acknowledged: zero acknowledged-write loss across crashes.
	FsyncAlways Policy = iota
	// FsyncBatch acknowledges from the page cache and syncs on a short
	// background interval: a crash can lose at most the last interval.
	FsyncBatch
	// FsyncOff never syncs outside checkpoints: a crash can lose
	// everything since the last snapshot. Recovery still fails closed on
	// tampering; only durability is relaxed.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values to policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, batch or off)", s)
	}
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Key is the processor key; the at-rest sealing key derives from it.
	Key []byte
	// Fsync selects the durability/latency trade-off.
	Fsync Policy
	// FsyncInterval is FsyncBatch's background sync period (default 10ms).
	FsyncInterval time.Duration
	// SnapshotEvery cuts a background checkpoint (snapshot + WAL
	// truncation) on this period; 0 disables periodic checkpoints.
	SnapshotEvery time.Duration
	// RepairPoll is how often the repair monitor scans for quarantined
	// shards between fault notifications (default 250ms); a negative value
	// disables the monitor (repairs only via RepairShard).
	RepairPoll time.Duration
	// RepairBackoff is the delay after a failed repair attempt before the
	// next one; it doubles per consecutive failure up to RepairMaxBackoff
	// with ±25% jitter (defaults 100ms and 5s).
	RepairBackoff    time.Duration
	RepairMaxBackoff time.Duration
	// RepairAttempts is the crash-loop breaker: after this many
	// consecutive failed repairs of one shard it stays down until an
	// operator uncordons it (default 5).
	RepairAttempts int
	// Logf, when non-nil, receives recovery and checkpoint events.
	Logf func(format string, args ...any)
	// FS overrides the filesystem (crash tests); nil means the OS.
	FS FS
	// Obs, when non-nil, wires the observability subsystem in: checkpoint,
	// recovery and repair durations are registered as instruments, and each
	// group commit deposits its WAL append/fsync stage costs in the
	// Service's per-shard mailbox for the pool worker to fold into its
	// histograms and trace spans. Use the same Service as the pool's.
	Obs *obs.Service
}

// RecoveryInfo reports what Recover found and did.
type RecoveryInfo struct {
	Fresh         bool           `json:"fresh"`
	Epoch         uint64         `json:"epoch"`
	Shards        int            `json:"shards"`
	SnapshotBytes int64          `json:"snapshot_bytes"`
	WALBytes      int64          `json:"wal_bytes"`
	WALRecords    uint64         `json:"wal_records"`
	Replayed      uint64         `json:"replayed"`
	ReplaySkipped uint64         `json:"replay_skipped"`
	AuxCut        uint64         `json:"aux_cut"` // tenant journal records cut at a barrier (aux.go)
	Elapsed       time.Duration  `json:"elapsed_ns"`
	Phases        RecoveryPhases `json:"phases"`
}

// RecoveryPhases is the wall-clock time of each phase of a recovery from
// an anchored directory, in the order they run (all zero on a fresh one).
type RecoveryPhases struct {
	// SnapshotRead is the anchor read plus the snapshot's open and framing
	// walk: its header and section lengths checked against its size. No
	// shard image is read here; each shard reads its own in Rebuild.
	SnapshotRead time.Duration `json:"snapshot_read_ns"`
	Scan         time.Duration `json:"scan_ns"`    // every WAL and the tenant journal verified, barrier caps applied
	Rebuild      time.Duration `json:"rebuild_ns"` // every shard's section read and decoded, replayed and swept, concurrently
	// The slowest shard's share of Rebuild; its decode includes reading
	// its section from the snapshot file.
	SlowestDecode time.Duration `json:"slowest_decode_ns"`
	SlowestReplay time.Duration `json:"slowest_replay_ns"`
	SlowestSweep  time.Duration `json:"slowest_sweep_ns"`
	Reopen        time.Duration `json:"reopen_ns"` // WAL writers and tenant journal reopened
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("persist: store is closed")

// Store is the durability layer bound to one data directory and, after
// Recover, one pool. It implements shard.CommitHook.
type Store struct {
	opts    Options
	fs      FS
	key     []byte // seal key
	dataKey []byte // WAL payload encryption key

	// failErr latches the first unrecoverable durability fault. Once set
	// the store is fail-closed: Commit refuses every batch (so the pool
	// stops acknowledging mutations it can no longer make durable) and
	// Checkpoint refuses to run. Reads are unaffected.
	failErr atomic.Pointer[error]

	// ckptMu serializes checkpoints, recovery and close against each
	// other; epoch and pool are written under it.
	ckptMu sync.Mutex
	epoch  uint64
	pool   *shard.Pool
	closed bool

	// fence is the node's cluster fencing epoch. It stamps every shipped
	// segment and is sealed into the anchor at each checkpoint, so both
	// sides of a failover remember who was deposed across restarts.
	// 0 outside cluster deployments.
	fence atomic.Uint64

	// memEpoch is the cluster membership epoch last applied on this node;
	// it is sealed into the anchor alongside the fence so a stale or
	// rolled-back membership view is refused across restarts. 0 outside
	// cluster deployments.
	memEpoch atomic.Uint64

	// segSink, when set, receives a sealed Segment for every committed
	// batch before the batch is acknowledged (synchronous replication).
	segSink atomic.Pointer[segSinkRef]

	// rotHook, when set, is called after every successful checkpoint with
	// the new WAL epoch. The cluster shipper uses it to proactively
	// restart its follower stream from the post-rotation baseline instead
	// of letting the next commit die on a continuity error.
	rotHook atomic.Pointer[rotHookRef]

	wals []*walWriter

	// aux is the auxiliary (tenant) journal riding the same directory; see
	// aux.go. Zero-valued (disabled) unless EnableAux was called.
	aux auxState

	lastSnapPath  string
	lastSnapBytes int64

	met *storeMetrics // nil when Options.Obs is nil

	stopc chan struct{}
	bg    sync.WaitGroup
}

// segSinkRef boxes the replication sink func for atomic.Pointer.
type segSinkRef struct{ f func(*Segment) error }

// rotHookRef boxes the checkpoint-rotation hook for atomic.Pointer.
type rotHookRef struct{ f func(epoch uint64) }

// SetFence sets the node's cluster fencing epoch. New segments carry it
// immediately; it is sealed into the anchor at the next checkpoint.
func (st *Store) SetFence(f uint64) { st.fence.Store(f) }

// Fence returns the node's current cluster fencing epoch.
func (st *Store) Fence() uint64 { return st.fence.Load() }

// SetMemEpoch sets the cluster membership epoch; it is sealed into the
// anchor at the next checkpoint so view rollbacks are refused across
// restarts. Epochs only ratchet up.
func (st *Store) SetMemEpoch(e uint64) {
	for {
		cur := st.memEpoch.Load()
		if e <= cur || st.memEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// MemEpoch returns the last applied cluster membership epoch.
func (st *Store) MemEpoch() uint64 { return st.memEpoch.Load() }

// SetRotateHook installs (or, with nil, removes) the checkpoint-rotation
// notifier: it runs at the end of every successful Checkpoint, after the
// logs have been reset to the new epoch. The hook must not block and
// must not call back into the store.
func (st *Store) SetRotateHook(f func(epoch uint64)) {
	if f == nil {
		st.rotHook.Store(nil)
		return
	}
	st.rotHook.Store(&rotHookRef{f: f})
}

// SetSegmentSink installs (or, with nil, removes) the replication sink.
// While set, every committed batch is encoded as a Segment and handed to
// the sink before the batch is acknowledged; a sink error fails the batch
// and rewinds its records out of the local log. The sink is called with
// the shard's WAL writer lock held, serializing it per shard.
func (st *Store) SetSegmentSink(f func(*Segment) error) {
	if f == nil {
		st.segSink.Store(nil)
		return
	}
	st.segSink.Store(&segSinkRef{f: f})
}

// LastSnapshot reports the most recent checkpoint's snapshot path and
// size (zero values before the first checkpoint).
func (st *Store) LastSnapshot() (string, int64) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	return st.lastSnapPath, st.lastSnapBytes
}

// countingWriter counts bytes on their way to a File.
type countingWriter struct {
	f File
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

// Open validates options and binds a store to its data directory. No
// state is read until Recover.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Dir is required")
	}
	if len(opts.Key) == 0 {
		return nil, errors.New("persist: Key is required (the seal key derives from it)")
	}
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = 10 * time.Millisecond
	}
	if opts.RepairPoll == 0 {
		opts.RepairPoll = 250 * time.Millisecond
	}
	if opts.RepairBackoff == 0 {
		opts.RepairBackoff = 100 * time.Millisecond
	}
	if opts.RepairMaxBackoff == 0 {
		opts.RepairMaxBackoff = 5 * time.Second
	}
	if opts.RepairAttempts == 0 {
		opts.RepairAttempts = 5
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS()
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st := &Store{opts: opts, fs: fs, key: sealKey(opts.Key), dataKey: walDataKey(opts.Key)}
	if opts.Obs != nil {
		st.met = newStoreMetrics(opts.Obs)
	}
	return st, nil
}

// fail latches err as the store's permanent fault and returns the wrapped
// error. First caller wins; later faults are reported but not latched.
func (st *Store) fail(err error) error {
	werr := fmt.Errorf("persist: store failed closed: %w", err)
	if st.failErr.CompareAndSwap(nil, &werr) {
		st.met.markFailed()
		if st.opts.Logf != nil {
			st.opts.Logf("store failed closed: %v", err)
		}
	}
	return *st.failErr.Load()
}

// failedErr returns the latched fault, or nil for a healthy store.
func (st *Store) failedErr() error {
	if p := st.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (st *Store) anchorPath() string { return filepath.Join(st.opts.Dir, "anchor.bin") }

func (st *Store) snapPath(epoch uint64) string {
	return filepath.Join(st.opts.Dir, fmt.Sprintf("snap-%016x.img", epoch))
}

func (st *Store) walPath(i int) string {
	return filepath.Join(st.opts.Dir, fmt.Sprintf("wal-%03d.log", i))
}

func (st *Store) headPath(i int) string {
	return filepath.Join(st.opts.Dir, fmt.Sprintf("walhead-%03d.bin", i))
}

// ownFile reports whether a directory entry belongs to this layer.
func ownFile(name string) bool {
	return name == "anchor.bin" || name == "anchor.tmp" || name == "snap.tmp" ||
		strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") ||
		strings.HasPrefix(name, "walhead-") || strings.HasPrefix(name, "auxsnap-")
}

// initWriters builds the per-shard writer set (files opened lazily), plus
// the aux journal's writer when the aux journal is enabled.
func (st *Store) initWriters(n int) {
	st.wals = make([]*walWriter, n)
	for i := range st.wals {
		st.wals[i] = &walWriter{
			fs:       st.fs,
			key:      st.key,
			dataKey:  st.dataKey,
			shardIdx: uint32(i),
			path:     st.walPath(i),
			headPath: st.headPath(i),
		}
	}
	if st.aux.enabled {
		st.aux.w = &walWriter{
			fs:       st.fs,
			key:      st.key,
			dataKey:  st.dataKey,
			shardIdx: auxShardIdx,
			path:     st.auxWALPath(),
			headPath: st.auxHeadPath(),
		}
	}
}

// Commit implements shard.CommitHook: it appends the batch's mutations to
// the shard's WAL and, under FsyncAlways, makes them durable and seals
// the head before returning — i.e., before the pool executes or
// acknowledges anything in the batch.
func (st *Store) Commit(shardIdx int, ops []shard.MutOp) error {
	if err := st.failedErr(); err != nil {
		return err
	}
	w := st.wals[shardIdx]
	recs := make([]walRec, len(ops))
	for i, op := range ops {
		recs[i] = walRec{
			Kind: op.Kind,
			Addr: op.Addr,
			Virt: op.Virt,
			PID:  op.PID,
			Slot: uint32(op.Slot),
			Data: op.Data,
		}
		if op.Kind == shard.MutSwapIn {
			recs[i].Data = core.EncodePageImage(op.Img)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	preOff, preSeq, preChain := w.off, w.seq, w.chain
	var appendNs, fsyncNs int64
	var t0 time.Time
	if st.met != nil {
		t0 = time.Now()
	}
	frames, err := w.append(recs)
	if st.met != nil {
		appendNs = time.Since(t0).Nanoseconds()
	}
	if err == nil && st.opts.Fsync == FsyncAlways {
		if st.met != nil {
			t0 = time.Now()
		}
		err = w.syncAndPublish()
		if st.met != nil {
			fsyncNs = time.Since(t0).Nanoseconds()
		}
	}
	if err == nil {
		// Replication ships the batch before it is acknowledged. A sink
		// error (e.g. the follower fenced this node off) fails the batch,
		// and the rewind below removes its records so the local log never
		// chains past operations that were refused. The follower may have
		// applied the shipped segment by then; since the batch was never
		// acknowledged, either outcome is a legal post-failure state and
		// the follower resolves the divergence by requesting a resync.
		if ref := st.segSink.Load(); ref != nil {
			seg := &Segment{
				Epoch: w.epoch, Fence: st.fence.Load(), Shard: w.shardIdx,
				FromSeq: preSeq, FromChain: preChain,
				ToSeq: w.seq, ToChain: w.chain,
				Records: append([]byte(nil), frames...),
			}
			err = ref.f(seg)
		}
	}
	if err != nil {
		// The pool fails this batch unexecuted, so its records must not
		// stay in the log: rewind to the batch's start so no later batch
		// chains past operations the live process never performed. If even
		// the rewind cannot be made durable, this shard's log no longer
		// matches its execution — an unsafe per-shard durability fault. The
		// error is marked ErrDurabilityFault so the pool quarantines the
		// shard (and only it); the writer is poisoned so the background
		// flusher cannot publish a head over the un-rewound tail before the
		// repair worker rebuilds the shard and re-primes the log.
		if rerr := w.rewind(preOff, preSeq, preChain); rerr != nil {
			w.poisoned = true
			return fmt.Errorf("%w: shard %d WAL rewind after failed commit: %v (commit: %v)",
				shard.ErrDurabilityFault, shardIdx, rerr, err)
		}
		return err
	}
	st.met.commitStages(shardIdx, appendNs, fsyncNs, w.off-preOff)
	return nil
}

// Flush syncs every shard's WAL and seals its head, regardless of policy.
func (st *Store) Flush() error {
	var first error
	for _, w := range st.wals {
		w.mu.Lock()
		err := w.syncAndPublish()
		w.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint cuts a verified snapshot and truncates every WAL: the pool
// is frozen, its image written and synced, the anchor resealed with the
// fresh chip states, and the logs reset to the new epoch — in that order,
// so a crash at any point leaves either the old epoch fully recoverable
// or the new one. Checkpoints are always fully synced, whatever the
// fsync policy. Older snapshots are removed afterwards.
func (st *Store) Checkpoint() error {
	ckptStart := time.Now()
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.failedErr(); err != nil {
		return err
	}
	if st.pool == nil {
		return errors.New("persist: Checkpoint before Recover")
	}
	newEpoch := st.epoch + 1
	var auxSrc *auxSource
	if st.aux.enabled {
		auxSrc = st.aux.src.Load()
		if auxSrc == nil && st.auxDirty() {
			// Tenant state exists but the tenant layer is not wired back in
			// yet; a checkpoint now would seal an empty section over it.
			return errors.New("persist: checkpoint with recovered tenant state but no aux source installed")
		}
		if auxSrc != nil {
			// Freeze tenant operations before the pool freezes: an in-flight
			// tenant operation may still be waiting on pool calls, which must
			// be able to complete for the freeze to be acquired.
			auxSrc.freeze()
			defer auxSrc.thaw()
		}
	}
	tmpPath := filepath.Join(st.opts.Dir, "snap.tmp")
	f, err := st.fs.Create(tmpPath)
	if err != nil {
		return err
	}
	cw := &countingWriter{f: f}
	bw := bufio.NewWriterSize(cw, 1<<16)
	hdr := encodeSnapHeader(newEpoch, uint32(st.pool.Shards()))
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	_, err = st.pool.Checkpoint(bw, func(chips []core.ChipState) error {
		// The pool is frozen from here to return: no batch can commit
		// between the image cut and the log reset.
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := st.fs.Rename(tmpPath, st.snapPath(newEpoch)); err != nil {
			return err
		}
		if err := st.fs.SyncDir(st.opts.Dir); err != nil {
			return err
		}
		a := anchor{Epoch: newEpoch, Fence: st.fence.Load(), MemEpoch: st.memEpoch.Load(), Chips: chips}
		if st.aux.enabled {
			auxSec, aerr := st.auxCheckpointSection(auxSrc)
			if aerr != nil {
				return fmt.Errorf("aux section: %w", aerr)
			}
			if aerr := st.writeAuxSnap(newEpoch, auxSec); aerr != nil {
				return fmt.Errorf("aux snapshot: %w", aerr)
			}
			a.HasAux = true
			a.AuxDigest = auxDigest(st.key, newEpoch, auxSec)
		}
		if err := st.writeAnchor(a); err != nil {
			return err
		}
		// From the durable anchor on, the new snapshot is authoritative;
		// the old logs are now superseded and can be reset. A crash
		// between these steps leaves heads/logs on the old epoch, which
		// recovery treats as empty under the new anchor. For the same
		// reason a live failure past this point must fail the store
		// closed: were the pool to keep acknowledging into old-epoch logs,
		// recovery under the new anchor would discard those records and
		// acknowledged writes would be lost.
		for _, w := range st.wals {
			w.mu.Lock()
			err := w.reset(newEpoch)
			w.mu.Unlock()
			if err != nil {
				return st.fail(fmt.Errorf("shard %d WAL reset after durable epoch-%d anchor: %v", w.shardIdx, newEpoch, err))
			}
		}
		if st.aux.enabled {
			if err := st.resetAux(newEpoch); err != nil {
				return st.fail(fmt.Errorf("aux WAL reset after durable epoch-%d anchor: %v", newEpoch, err))
			}
		}
		if err := st.fs.SyncDir(st.opts.Dir); err != nil {
			return st.fail(fmt.Errorf("dir sync after durable epoch-%d anchor: %v", newEpoch, err))
		}
		st.epoch = newEpoch
		return nil
	})
	if err != nil {
		st.fs.Remove(tmpPath) // best effort; a stale tmp is ignored anyway
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	st.lastSnapPath, st.lastSnapBytes = st.snapPath(newEpoch), cw.n
	st.met.observeCheckpoint(time.Since(ckptStart), newEpoch, cw.n)
	if ref := st.rotHook.Load(); ref != nil {
		ref.f(newEpoch)
	}
	st.gcSnapshots(newEpoch)
	if st.opts.Logf != nil {
		st.opts.Logf("checkpoint: epoch %d snapshotted (%s), WALs truncated", newEpoch, sizeString(cw.n))
	}
	return nil
}

// writeAnchor atomically replaces the sealed anchor.
func (st *Store) writeAnchor(a anchor) error {
	tmp := filepath.Join(st.opts.Dir, "anchor.tmp")
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeAnchor(st.key, a)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := st.fs.Rename(tmp, st.anchorPath()); err != nil {
		return err
	}
	return st.fs.SyncDir(st.opts.Dir)
}

// gcSnapshots removes snapshots of superseded epochs and stale temp files.
func (st *Store) gcSnapshots(current uint64) {
	names, err := st.fs.ReadDir(st.opts.Dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if n == "snap.tmp" || n == "anchor.tmp" {
			st.fs.Remove(filepath.Join(st.opts.Dir, n))
			continue
		}
		var prefix string
		switch {
		case strings.HasPrefix(n, "snap-"):
			prefix = "snap-"
		case strings.HasPrefix(n, "auxsnap-"):
			prefix = "auxsnap-"
		default:
			continue
		}
		if !strings.HasSuffix(n, ".img") {
			continue
		}
		e, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, prefix), ".img"), 16, 64)
		if perr == nil && e != current {
			st.fs.Remove(filepath.Join(st.opts.Dir, n))
		}
	}
}

// startBackground launches the flusher (FsyncBatch) and the periodic
// snapshotter (SnapshotEvery > 0). With the aux journal on, the flusher
// syncs the shard WALs, then the aux log and its head (flushAux).
func (st *Store) startBackground() {
	st.stopc = make(chan struct{})
	if st.opts.Fsync == FsyncBatch {
		flush := st.Flush
		if st.aux.enabled {
			flush = func() error { return st.flushAux(false) }
		}
		st.bg.Add(1)
		go func() {
			defer st.bg.Done()
			t := time.NewTicker(st.opts.FsyncInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := flush(); err != nil && st.opts.Logf != nil {
						st.opts.Logf("wal flush: %v", err)
					}
				case <-st.stopc:
					return
				}
			}
		}()
	}
	if st.opts.SnapshotEvery > 0 {
		st.bg.Add(1)
		go func() {
			defer st.bg.Done()
			t := time.NewTicker(st.opts.SnapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// A degraded pool refuses checkpoints (shard.ErrPoolDegraded);
					// the snapshotter just retries next period, after repair.
					if err := st.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) && st.opts.Logf != nil {
						st.opts.Logf("checkpoint: %v", err)
					}
				case <-st.stopc:
					return
				}
			}
		}()
	}
	if st.opts.RepairPoll > 0 {
		st.bg.Add(1)
		go st.repairLoop()
	}
}

// Close stops the background goroutines, gives every WAL a final durable
// sync, and releases file handles. Call Checkpoint first for a clean
// final snapshot; Close alone leaves a valid WAL-replay state.
func (st *Store) Close() error {
	st.ckptMu.Lock()
	if st.closed {
		st.ckptMu.Unlock()
		return ErrClosed
	}
	st.closed = true
	st.ckptMu.Unlock()
	if st.stopc != nil {
		close(st.stopc)
		st.bg.Wait()
	}
	var first error
	if st.aux.enabled && st.aux.w != nil && st.opts.Fsync != FsyncAlways {
		// Twice: the first pass frames and seals the final barrier, the
		// second seals the shard heads up to its claims (flushAux).
		if first = st.flushAux(true); first == nil {
			first = st.flushAux(true)
		}
	} else {
		first = st.Flush()
		if st.aux.enabled && st.aux.w != nil {
			if err := st.SyncAux(); err != nil && first == nil {
				first = err
			}
		}
	}
	ws := st.wals
	if st.aux.w != nil {
		ws = append(append([]*walWriter(nil), ws...), st.aux.w)
	}
	for _, w := range ws {
		w.mu.Lock()
		err := w.close()
		w.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
