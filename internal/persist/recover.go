package persist

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/shard"
)

// Recover builds the store's pool from the data directory and arms the
// durability machinery around it. On a fresh directory it creates the
// pool, cuts the initial checkpoint (epoch 1) and returns. Otherwise it
// verifies the sealed anchor, scans every shard's WAL against its sealed
// head, and rebuilds every shard at once (restoreShard: resume its section
// of the matching snapshot, replay its WAL, sweep it whole so its Bonsai
// root is re-verified). Only once every shard has passed does it reopen
// the logs, and only then install the commit hook and background tasks.
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
	f, size, err := st.fs.Open(st.snapPath(anc.Epoch))
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("%w: snapshot for anchored epoch %d missing", ErrSnapshotTampered, anc.Epoch)
	}
	defer f.Close()
	ccfg, secs, err := snapshotSections(cfg, anc, f, size)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{Epoch: anc.Epoch, Shards: len(secs), SnapshotBytes: size}
	info.Phases.SnapshotRead = time.Since(start)

	t0 := time.Now()
	st.initWriters(len(secs))
	logs := make([]walLog, len(st.wals))
	seqs := make([]uint64, len(st.wals))
	for i, w := range st.wals {
		hb, herr := st.fs.ReadFile(w.headPath)
		if herr != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("%w: WAL head for shard %d missing", ErrTrustTampered, i)
		}
		if logs[i], err = st.scanLog(w, hb, anc); err != nil {
			return nil, RecoveryInfo{}, err
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
			return nil, RecoveryInfo{}, err
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
	info.Phases.Scan = time.Since(t0)

	t0 = time.Now()
	recs := make([][]walRec, len(logs))
	for i, l := range logs {
		recs[i] = l.recs
		info.WALRecords += l.seq
		info.WALBytes += l.validLen
	}
	pool, rebuilt, err := restorePool(cfg, ccfg, anc, secs, recs)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info.Phases.Rebuild = time.Since(t0)
	var auxEvents []AuxEvent
	var slowest time.Duration
	for _, r := range rebuilt {
		info.Replayed += r.replayed
		info.ReplaySkipped += r.skipped
		auxEvents = append(auxEvents, r.events...)
		if d := r.decode + r.replay + r.sweep; d > slowest {
			slowest = d
			info.Phases.SlowestDecode, info.Phases.SlowestReplay, info.Phases.SlowestSweep = r.decode, r.replay, r.sweep
		}
	}
	fail := func(err error) (*shard.Pool, RecoveryInfo, error) {
		pool.Close()
		return nil, RecoveryInfo{}, err
	}

	// Only a pool whose every shard passed its sweep gets its logs reopened
	// (cut to their valid length, synced, sealed).
	t0 = time.Now()
	for i, w := range st.wals {
		w.mu.Lock()
		err := st.resume(w, anc.Epoch, &logs[i], aux.shardMode)
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
	info.Phases.Reopen = time.Since(t0)

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
		ph, ms := info.Phases, func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
		st.opts.Logf("recovered epoch %d: %d WAL records (%d applied, %d reproduced rejections) over a %s snapshot in %s: "+
			"open+framing %s, WAL scan %s, rebuild %s (slowest shard: read+decode %s, replay %s, sweep %s), reopen %s",
			info.Epoch, info.WALRecords, info.Replayed, info.ReplaySkipped, sizeString(info.SnapshotBytes), info.Elapsed.Round(time.Millisecond),
			ms(ph.SnapshotRead), ms(ph.Scan), ms(ph.Rebuild), ms(ph.SlowestDecode), ms(ph.SlowestReplay), ms(ph.SlowestSweep), ms(ph.Reopen))
	}
	return pool, info, nil
}

// snapshotSections checks the header of a snapshot file (r, size bytes)
// against the anchor it is sealed under and walks its body's framing
// (shard.Sections), returning a reader over each shard's image and the
// controller configuration the images resume under. No image is read.
func snapshotSections(cfg shard.Config, anc anchor, r io.ReaderAt, size int64) (core.Config, []*io.SectionReader, error) {
	var hdr [snapHeaderLen]byte
	n, _ := io.ReadFull(io.NewSectionReader(r, 0, size), hdr[:])
	sEpoch, sShards, err := parseSnapHeader(hdr[:n])
	if err != nil {
		return core.Config{}, nil, fmt.Errorf("%w: %v", ErrSnapshotTampered, err)
	}
	if sEpoch != anc.Epoch || int(sShards) != len(anc.Chips) {
		return core.Config{}, nil, fmt.Errorf("%w: snapshot header (epoch %d, %d shards) does not match anchor (epoch %d, %d shards)",
			ErrSnapshotTampered, sEpoch, sShards, anc.Epoch, len(anc.Chips))
	}
	body := size - snapHeaderLen
	ccfg, secs, err := shard.Sections(cfg, io.NewSectionReader(r, snapHeaderLen, body), body)
	if err != nil {
		return core.Config{}, nil, fmt.Errorf("%w: resume: %v", ErrSnapshotTampered, err)
	}
	return ccfg, secs, nil
}

// restoredShard is one shard's controller as restoreShard rebuilt it.
type restoredShard struct {
	sm                    *core.SecureMemory
	replayed, skipped     uint64
	events                []AuxEvent // structural ops replayed
	decode, replay, sweep time.Duration
}

// restoreShard rebuilds shard i's controller from durable state, the one
// path recovery, repair and baseline import share: resume it from img
// (its snapshot section, decoded as it is read) under the anchor's chip
// state, replay recs (its
// WAL records past the snapshot) on the bare controller, and sweep it
// whole against the restored root. Ops the live run rejected the same
// deterministic way are reproduced and counted as skipped. The structural
// ops replayed come back in replay order for the tenant layer (aux.go).
func restoreShard(ccfg core.Config, anc anchor, i int, img io.Reader, recs []walRec) (restoredShard, error) {
	var r restoredShard
	t0 := time.Now()
	sm, err := core.Resume(ccfg, anc.Chips[i], img)
	if err != nil {
		return r, fmt.Errorf("%w: resume shard %d: %v", ErrSnapshotTampered, i, err)
	}
	t1 := time.Now()
	for _, rec := range recs {
		op, cerr := recToOp(rec)
		if cerr != nil {
			return r, fmt.Errorf("%w: shard %d: %v", ErrWALTampered, i, cerr)
		}
		pimg, rerr := shard.ApplyOpImage(sm, op)
		switch {
		case errors.Is(rerr, core.ErrImageMismatch):
			// The live run refused this swap-in's image the same way after
			// logging it; its directory slot passed the tree check.
			r.skipped++
		case errors.Is(rerr, core.ErrTampered):
			return r, fmt.Errorf("%w: replay on shard %d: %v", ErrSnapshotTampered, i, rerr)
		case rerr != nil:
			r.skipped++
		default:
			r.replayed++
			if op.Kind != shard.MutWrite {
				r.events = append(r.events, AuxEvent{Shard: i, Kind: op.Kind, Addr: op.Addr, Virt: op.Virt, Slot: op.Slot, Img: pimg})
			}
		}
	}
	t2 := time.Now()
	if err := sm.VerifyAll(); err != nil {
		return r, fmt.Errorf("%w: post-replay verify on shard %d: %v", ErrSnapshotTampered, i, err)
	}
	r.sm, r.decode, r.replay, r.sweep = sm, t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return r, nil
}

// restorePool runs restoreShard for every shard at once, one goroutine
// per shard (secs[i] is shard i's snapshot section, recs[i] its records),
// and once all have finished
// assembles the pool. It returns the per-shard results in shard order, or
// the lowest-numbered shard's error.
func restorePool(cfg shard.Config, ccfg core.Config, anc anchor, secs []*io.SectionReader, recs [][]walRec) (*shard.Pool, []restoredShard, error) {
	out := make([]restoredShard, len(secs))
	errs := make([]error, len(secs))
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = restoreShard(ccfg, anc, i, secs[i], recs[i])
		}()
	}
	wg.Wait()
	sms := make([]*core.SecureMemory, len(out))
	for i, r := range out {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		sms[i] = r.sm
	}
	pool, err := shard.Assemble(cfg, sms)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: resume: %v", ErrSnapshotTampered, err)
	}
	return pool, out, nil
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
	w.codec = newWALCodec(st.key, st.dataKey, epoch, w.shardIdx)
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
