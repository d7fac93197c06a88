package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/shard"
)

// Recover builds the store's pool from the data directory and arms the
// durability machinery around it. On a fresh directory it creates the
// pool, cuts the initial checkpoint (epoch 1) and returns. Otherwise it
// verifies the sealed anchor, resumes the pool from the matching
// snapshot, replays every shard's WAL against its sealed head, runs a
// full integrity sweep so the Bonsai roots are re-verified before any
// traffic, and only then installs the commit hook and background tasks.
//
// Every trust violation fails closed: ErrTrustTampered for the sealed
// files, ErrWALTampered for the log, ErrSnapshotTampered for snapshot
// state that fails verification. cfg must match the configuration the
// directory was written with (same key, schemes, sizes, shard count).
func (st *Store) Recover(cfg shard.Config) (*shard.Pool, RecoveryInfo, error) {
	start := time.Now()
	st.ckptMu.Lock()
	if st.closed {
		st.ckptMu.Unlock()
		return nil, RecoveryInfo{}, ErrClosed
	}
	if st.pool != nil {
		st.ckptMu.Unlock()
		return nil, RecoveryInfo{}, errors.New("persist: Recover called twice")
	}
	st.ckptMu.Unlock()

	ab, err := st.fs.ReadFile(st.anchorPath())
	if err != nil {
		return st.recoverFresh(cfg, start)
	}
	anc, err := parseAnchor(st.key, ab)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	snapB, err := st.fs.ReadFile(st.snapPath(anc.Epoch))
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("%w: snapshot for anchored epoch %d missing", ErrSnapshotTampered, anc.Epoch)
	}
	sEpoch, sShards, err := parseSnapHeader(snapB)
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("%w: %v", ErrSnapshotTampered, err)
	}
	if sEpoch != anc.Epoch || int(sShards) != len(anc.Chips) {
		return nil, RecoveryInfo{}, fmt.Errorf("%w: snapshot header (epoch %d, %d shards) does not match anchor (epoch %d, %d shards)",
			ErrSnapshotTampered, sEpoch, sShards, anc.Epoch, len(anc.Chips))
	}
	pool, err := shard.Resume(cfg, anc.Chips, bytes.NewReader(snapB[snapHeaderLen:]))
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("%w: resume: %v", ErrSnapshotTampered, err)
	}
	info := RecoveryInfo{Epoch: anc.Epoch, Shards: pool.Shards(), SnapshotBytes: int64(len(snapB))}
	fail := func(err error) (*shard.Pool, RecoveryInfo, error) {
		pool.Close()
		return nil, RecoveryInfo{}, err
	}

	st.initWriters(pool.Shards())
	logs := make([]walLog, len(st.wals))
	seqs := make([]uint64, len(st.wals))
	for i, w := range st.wals {
		hb, herr := st.fs.ReadFile(w.headPath)
		if herr != nil {
			return fail(fmt.Errorf("%w: WAL head for shard %d missing", ErrTrustTampered, i))
		}
		if logs[i], err = st.scanLog(w, hb, anc); err != nil {
			return fail(err)
		}
		if l := &logs[i]; l.validLen > 0 && l.validLen < int64(len(l.file)) && st.opts.Logf != nil {
			st.opts.Logf("shard %d: truncating %d bytes of torn WAL tail", i, int64(len(l.file))-l.validLen)
		}
		seqs[i] = logs[i].seq
	}
	// The tenant journal is scanned before any shard replays: its last
	// released barrier bounds how far each shard WAL may replay (aux.go).
	var aux auxLog
	if st.aux.enabled {
		if aux, err = st.scanAux(anc, seqs); err != nil {
			return fail(err)
		}
		info.AuxCut = aux.cut
		for i := range logs {
			if aux.caps == nil {
				break
			}
			// Never below the sealed head: flushAux keeps every sealed shard
			// position inside a durable barrier's claims.
			if n := logs[i].cutTo(st.key, max(logs[i].head.Seq, aux.caps[i])); n > 0 && st.opts.Logf != nil {
				st.opts.Logf("shard %d: dropping %d WAL records past the tenant journal's last barrier", i, n)
			}
		}
	}

	// With the aux journal enabled, the replay also collects the structural
	// events (swap-outs with their regenerated images, swap-ins, moves) the
	// tenant layer needs to reconcile its journal against; see aux.go.
	var auxEvents []AuxEvent
	for i, w := range st.wals {
		l := &logs[i]
		for _, r := range l.recs {
			op, cerr := recToOp(r)
			if cerr != nil {
				return fail(fmt.Errorf("%w: shard %d: %v", ErrWALTampered, i, cerr))
			}
			img, rerr := pool.ReplayOpImage(i, op)
			if rerr != nil {
				if errors.Is(rerr, core.ErrTampered) {
					return fail(fmt.Errorf("%w: replay on shard %d: %v", ErrSnapshotTampered, i, rerr))
				}
				// The live run rejected this op the same deterministic way
				// (bad range, stale slot, unsupported); reproduce and move on.
				info.ReplaySkipped++
			} else {
				info.Replayed++
				if st.aux.enabled && op.Kind != shard.MutWrite {
					auxEvents = append(auxEvents, AuxEvent{
						Shard: i, Kind: op.Kind, Addr: op.Addr, Virt: op.Virt, Slot: op.Slot, Img: img,
					})
				}
			}
		}
		info.WALRecords += l.seq
		info.WALBytes += l.validLen
		w.mu.Lock()
		err := st.resume(w, anc.Epoch, l, aux.shardMode)
		w.mu.Unlock()
		if err != nil {
			return fail(fmt.Errorf("persist: shard %d WAL reopen: %w", i, err))
		}
	}

	if st.aux.enabled {
		if err := st.recoverAux(anc, &aux, auxEvents); err != nil {
			return fail(err)
		}
	}

	// Gate: a full verification sweep re-checks every shard against its
	// restored root before the pool is handed out for traffic.
	if err := pool.Verify(context.Background()); err != nil {
		return fail(fmt.Errorf("%w: post-replay verify: %v", ErrSnapshotTampered, err))
	}

	st.ckptMu.Lock()
	st.pool = pool
	st.epoch = anc.Epoch
	st.ckptMu.Unlock()
	st.fence.Store(anc.Fence)
	st.memEpoch.Store(anc.MemEpoch)
	pool.SetCommitHook(st)
	st.startBackground()
	info.Elapsed = time.Since(start)
	st.met.observeRecovery(info)
	if st.opts.Logf != nil {
		st.opts.Logf("recovered epoch %d: %d WAL records (%d applied, %d reproduced rejections) over a %s snapshot in %s",
			info.Epoch, info.WALRecords, info.Replayed, info.ReplaySkipped, sizeString(info.SnapshotBytes), info.Elapsed.Round(time.Millisecond))
	}
	return pool, info, nil
}

// recoverFresh initializes an empty data directory. Leftover layer files
// without an anchor mean the root of trust was destroyed — fail closed
// rather than silently starting over.
func (st *Store) recoverFresh(cfg shard.Config, start time.Time) (*shard.Pool, RecoveryInfo, error) {
	names, _ := st.fs.ReadDir(st.opts.Dir)
	for _, n := range names {
		if ownFile(n) && n != "snap.tmp" && n != "anchor.tmp" {
			return nil, RecoveryInfo{}, fmt.Errorf("%w: anchor missing but %s present", ErrTrustTampered, n)
		}
	}
	pool, err := shard.New(cfg)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	st.ckptMu.Lock()
	st.pool = pool
	st.epoch = 0
	st.ckptMu.Unlock()
	st.initWriters(pool.Shards())
	if err := st.Checkpoint(); err != nil {
		pool.Close()
		return nil, RecoveryInfo{}, err
	}
	pool.SetCommitHook(st)
	st.startBackground()
	info := RecoveryInfo{Fresh: true, Epoch: 1, Shards: pool.Shards(), Elapsed: time.Since(start)}
	st.met.observeRecovery(info)
	if st.opts.Logf != nil {
		st.opts.Logf("initialized fresh data dir: epoch 1, %d shards", info.Shards)
	}
	return pool, info, nil
}

// walLog is one log as recovery found it: its sealed head and every record
// scanWAL accepted against it, before any is replayed.
type walLog struct {
	head     walHead
	file     []byte
	recs     []walRec
	seq      uint64
	chain    [sealSize]byte
	validLen int64
	cut      bool // valid records were dropped, not torn (cutTo)
}

// scanLog verifies a log against its sealed head (hb is the head file). A
// head from an older epoch than the anchor — a checkpoint interrupted
// after its anchor, before this log's reset — scans as empty: the
// snapshot supersedes the old log completely.
func (st *Store) scanLog(w *walWriter, hb []byte, anc anchor) (walLog, error) {
	head, err := chooseHead(st.key, hb, w.shardIdx)
	if err != nil {
		return walLog{}, err
	}
	if head.Epoch > anc.Epoch {
		return walLog{}, fmt.Errorf("%w: %s head epoch %d is ahead of anchor epoch %d (anchor rolled back?)",
			ErrTrustTampered, w.name(), head.Epoch, anc.Epoch)
	}
	l := walLog{head: head}
	if head.Epoch == anc.Epoch {
		if l.file, err = st.fs.ReadFile(w.path); err != nil {
			l.file = nil // scanWAL fails closed unless the head committed nothing
		}
		if l.recs, l.seq, l.chain, l.validLen, err = scanWAL(st.key, st.dataKey, l.file, head); err != nil {
			return walLog{}, err
		}
	}
	return l, nil
}

// cutTo drops every record past seq n and reports how many it dropped.
func (l *walLog) cutTo(k []byte, n uint64) uint64 {
	if n >= l.seq {
		return 0
	}
	dropped := l.seq - n
	l.recs = l.recs[:n]
	l.validLen, l.chain = walPrefix(k, l.file, l.head, n)
	l.seq = n
	l.cut = true
	return dropped
}

// resumeMode is what resume does with the records a log holds past its
// sealed head.
type resumeMode int

const (
	resumeSeal    resumeMode = iota // sync them and seal the head over them
	resumeSync                      // sync them and leave the head where it is
	resumeAsFound                   // leave them as found, for the flusher, a checkpoint or Close
)

// resume primes w, which the caller holds locked, to continue the
// verified log l in place: cut the file to l's valid length, then treat
// the records past the sealed head as mode says. A cut that dropped valid
// records is synced whatever the mode, before anything can chain past it,
// so a later crash cannot resurrect them under sequence numbers new
// records reuse.
func (st *Store) resume(w *walWriter, epoch uint64, l *walLog, mode resumeMode) error {
	if l.validLen == 0 {
		return w.reset(epoch)
	}
	if err := w.reopen(); err != nil {
		return err
	}
	if err := w.f.Truncate(l.validLen); err != nil {
		return err
	}
	if l.cut {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.off = l.validLen
	w.epoch = epoch
	w.seq = l.seq
	w.chain = l.chain
	w.crypt = newWALCrypt(st.dataKey, epoch, w.shardIdx)
	w.syncedSeq = l.head.Seq
	w.flushedSeq = l.head.Seq
	w.poisoned = false
	switch mode {
	case resumeAsFound:
		return nil
	case resumeSync:
		return w.syncTo(nil)
	}
	return w.syncAndPublish()
}

// recToOp converts a WAL record back into a pool mutation.
func recToOp(r walRec) (shard.MutOp, error) {
	op := shard.MutOp{
		Kind: r.Kind,
		Addr: r.Addr,
		Virt: r.Virt,
		PID:  r.PID,
		Slot: int(r.Slot),
		Data: r.Data,
	}
	if r.Kind == shard.MutSwapIn {
		img, err := core.DecodePageImage(r.Data)
		if err != nil {
			return shard.MutOp{}, fmt.Errorf("swap-in image: %v", err)
		}
		op.Img, op.Data = img, nil
	}
	return op, nil
}

// sizeString renders a byte count with a binary suffix.
func sizeString(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
