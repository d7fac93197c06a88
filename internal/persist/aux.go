package persist

import (
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// The auxiliary journal persists the tenant layer's address-space
// metadata — page-table shape, swap-directory assignments, fork and
// shared-memory topology — alongside the pool's own WALs. It reuses the
// WAL machinery wholesale: records are HMAC-chained and encrypted under
// the same derivation tree, the committed position is sealed in a
// two-slot head file, and checkpoints truncate it to a fresh epoch whose
// tenant state is captured in a separate snapshot section whose digest is
// sealed into the anchor. The aux log is a single file (tenant structural
// mutations are globally ordered by the vm manager's mutex), identified
// inside the WAL format by the reserved shard index ^uint32(0).
//
// Consistency contract with the shard WALs: persisted tenant metadata is
// never ahead of the pool history it describes. The tenant layer emits an
// aux record only after the pool operation it describes has committed to
// its shard WAL, and calls SyncAux before acknowledging. Under FsyncAlways
// the shard WALs are synced at commit, and SyncAux syncs the aux log and
// seals its head before the ack. Under FsyncBatch and FsyncOff, SyncAux
// instead frames the buffered records into the aux log's page cache
// followed by a barrier record claiming every shard WAL's current
// sequence number; the ack path does no fsync and writes no head. The
// barrier takes the place of the flush:
//
//   - recovery releases tenant records only up to the last barrier every
//     recovered shard WAL satisfies, and replays each shard WAL only up to
//     that barrier's claim, so the journal and the pool are cut at the
//     same instant — a process crash keeps everything acknowledged (the
//     page cache survives it), a power cut rolls both back to a
//     consistent prefix;
//   - the batch flusher syncs the shard WALs before the aux log, and seals
//     a shard head only within the claims of a barrier already sealed
//     under the aux head (flushAux), so a sealed shard position is always
//     covered by a durable barrier.
//
// Recovery replays the (capped) shard WALs first, collects the structural
// events they regenerate (AuxEvent), lets the tenant layer consume them in
// journal order, and rolls any leftover suffix forward as the
// durable-but-unacknowledged tail.

// recKindAux marks a WAL record as an auxiliary (tenant journal) record;
// its Data is opaque to this layer. The value sits far above the pool's
// own MutKinds so the two spaces can never collide.
const recKindAux shard.MutKind = 64

// recKindAuxBarrier marks an aux record as a barrier: Data is one
// little-endian u64 per shard, the shard WAL sequence number the records
// before it depend on. Only FsyncBatch and FsyncOff write barriers.
const recKindAuxBarrier shard.MutKind = 65

// auxShardIdx is the reserved WAL shard index of the aux journal.
const auxShardIdx = ^uint32(0)

// AuxEvent is one structural pool mutation observed while replaying a
// shard WAL: a swap-out (with the image the replay regenerated from chip
// state), a swap-in, or a page move. The tenant layer matches these
// against its journal to rebuild swap-device and frame bookkeeping, and
// rolls unmatched ones forward. Addr and Virt are shard-local.
type AuxEvent struct {
	Shard int
	Kind  shard.MutKind
	Addr  layout.Addr
	Virt  uint64
	Slot  int
	Img   *core.PageImage // regenerated swap image (MutSwapOut only)
}

// AuxRecovery is what Recover found of the tenant layer's durable state:
// the sealed checkpoint section, the journal records appended since, and
// the structural events the shard-WAL replay regenerated. The tenant
// layer takes it (TakeAuxRecovery) and rebuilds its address spaces before
// serving traffic. All three empty means no tenants existed.
type AuxRecovery struct {
	Snap   []byte
	Recs   [][]byte
	Events []AuxEvent
}

// auxSource is the installed tenant layer: freeze/thaw bracket its
// operations across a checkpoint, snap captures its full current state.
type auxSource struct {
	freeze func()
	thaw   func()
	snap   func() ([]byte, error)
}

// auxState is the store's aux-journal half, embedded in Store.
type auxState struct {
	enabled bool
	src     atomic.Pointer[auxSource]

	// mu orders buffered appends, syncs and checkpoint resets; it nests
	// outside the walWriter mutexes (SyncAux reads the shard positions a
	// barrier claims under it).
	mu  sync.Mutex
	w   *walWriter
	buf []walRec

	// claimed is what the last framed barrier claims, per shard; sealed is
	// what the barrier under the sealed aux head claims. Both are nil until
	// the epoch's first barrier.
	claimed []walPos
	sealed  []walPos

	// hasState notes that recovery surfaced nonempty tenant state; until
	// an auxSource is installed, a checkpoint would capture an empty
	// section and silently discard that state, so Checkpoint refuses.
	hasState bool

	recovered *AuxRecovery
}

func (st *Store) auxWALPath() string  { return filepath.Join(st.opts.Dir, "wal-aux.log") }
func (st *Store) auxHeadPath() string { return filepath.Join(st.opts.Dir, "walhead-aux.bin") }

func (st *Store) auxSnapPath(epoch uint64) string {
	return filepath.Join(st.opts.Dir, fmt.Sprintf("auxsnap-%016x.img", epoch))
}

// auxDigest seals an aux checkpoint section to its epoch.
func auxDigest(k []byte, epoch uint64, body []byte) [sealSize]byte {
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], epoch)
	b := make([]byte, 0, 16+len(body))
	b = append(b, "auxsnap:"...)
	b = append(b, e[:]...)
	b = append(b, body...)
	return seal(k, b)
}

// EnableAux turns the auxiliary journal on. Call it before Recover (or
// Adopt): recovery then scans the aux log, verifies the tenant checkpoint
// section against the anchor, and stashes the result for TakeAuxRecovery;
// checkpoints write and seal an aux section from the installed source.
func (st *Store) EnableAux() { st.aux.enabled = true }

// AuxEnabled reports whether the auxiliary journal is on.
func (st *Store) AuxEnabled() bool { return st.aux.enabled }

// TakeAuxRecovery returns what Recover found of the tenant layer's state,
// or nil (aux disabled, or Recover not yet run). The caller owns it.
func (st *Store) TakeAuxRecovery() *AuxRecovery {
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	r := st.aux.recovered
	st.aux.recovered = nil
	return r
}

// SetAuxSource installs the tenant layer: freeze blocks new tenant
// operations and waits out in-flight ones (it is taken before the pool
// freezes, so an in-flight operation's pending pool calls still
// complete), thaw releases them, snap serializes the full current tenant
// state for the checkpoint section. Install it before the first tenant
// operation; with recovered tenant state present, checkpoints refuse to
// run until the source is installed (an empty section would discard it).
func (st *Store) SetAuxSource(freeze, thaw func(), snap func() ([]byte, error)) {
	st.aux.src.Store(&auxSource{freeze: freeze, thaw: thaw, snap: snap})
}

// AppendAux buffers one opaque tenant-journal record. Records are framed
// into the aux log in append order at the next SyncAux (or discarded at a
// checkpoint, whose section already captures their effects). Callers
// append under the ordering lock that serialized the mutation itself, so
// buffer order is mutation order.
func (st *Store) AppendAux(rec []byte) error {
	if !st.aux.enabled {
		return fmt.Errorf("persist: aux journal not enabled")
	}
	if err := st.failedErr(); err != nil {
		return err
	}
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	st.aux.buf = append(st.aux.buf, walRec{Kind: recKindAux, Data: append([]byte(nil), rec...)})
	return nil
}

// SyncAux binds every buffered aux record, and every pool mutation
// committed so far, to the journal before the tenant layer acknowledges.
// Under FsyncAlways the shard WALs are flushed first (the pool operations
// those records ride on must never be less durable than the records
// describing them), then the buffered records are framed, synced and
// sealed under the aux head. Under FsyncBatch and FsyncOff they are framed
// into the page cache behind a barrier instead (see the contract above);
// nothing is synced until the flusher, a checkpoint or Close.
func (st *Store) SyncAux() error {
	if !st.aux.enabled {
		return fmt.Errorf("persist: aux journal not enabled")
	}
	if err := st.failedErr(); err != nil {
		return err
	}
	if st.opts.Fsync != FsyncAlways {
		st.aux.mu.Lock()
		defer st.aux.mu.Unlock()
		return st.frameAuxLocked(true)
	}
	if !st.auxUnsynced() {
		return nil
	}
	if err := st.Flush(); err != nil {
		return err
	}
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	w := st.aux.w
	if w == nil {
		return fmt.Errorf("persist: aux journal used before Recover")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(st.aux.buf) > 0 {
		if _, err := w.append(st.aux.buf); err != nil {
			return err
		}
		st.aux.buf = st.aux.buf[:0]
	}
	return w.syncAndPublish()
}

// auxUnsynced reports buffered or framed-but-unsealed aux records (or a
// journal used before Recover, which the caller then reports).
func (st *Store) auxUnsynced() bool {
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	w := st.aux.w
	if w == nil || len(st.aux.buf) > 0 {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq != w.syncedSeq
}

// frameAuxLocked appends to the aux log's page cache the buffered records
// (unless records is false: the flusher leaves them to the tenant
// operation still emitting them) followed by a barrier claiming every
// shard WAL's current position. It appends nothing when nothing is new: no
// records to frame, and no barrier yet this epoch or no shard WAL moved
// past the last one's claims. The epoch's first barrier is synced before
// anything can be acknowledged behind it — once per epoch, it is what
// proves to recovery that this epoch's pool history is bound to barriers
// even if every later batch is lost. Nothing is appended past a first
// barrier until that sync succeeds, so a log holding two barriers shows
// recovery that its first one is durable. Called with aux.mu held.
func (st *Store) frameAuxLocked(records bool) error {
	w := st.aux.w
	if w == nil {
		return fmt.Errorf("persist: aux journal used before Recover")
	}
	var recs []walRec
	if records {
		recs = st.aux.buf
	}
	pos := make([]walPos, len(st.wals))
	moved := false
	for i, sw := range st.wals {
		sw.mu.Lock()
		pos[i] = walPos{seq: sw.seq, chain: sw.chain}
		sw.mu.Unlock()
		moved = moved || st.aux.claimed != nil && pos[i].seq != st.aux.claimed[i].seq
	}
	if len(recs) == 0 && !moved {
		return nil
	}
	claims := make([]byte, 0, 8*len(pos))
	for _, p := range pos {
		claims = binary.LittleEndian.AppendUint64(claims, p.seq)
	}
	recs = append(recs, walRec{Kind: recKindAuxBarrier, Data: claims})
	w.mu.Lock()
	defer w.mu.Unlock()
	if st.aux.claimed == nil {
		if err := w.syncTo(nil); err != nil { // a first barrier whose sync failed
			return err
		}
	}
	if _, err := w.append(recs); err != nil {
		return err
	}
	if records {
		st.aux.buf = st.aux.buf[:0]
	}
	if st.aux.claimed == nil {
		if err := w.syncTo(nil); err != nil {
			return err // claimed stays nil: the next barrier retries the sync
		}
	}
	st.aux.claimed = pos
	return nil
}

// flushAux is the FsyncBatch flusher's tick, and Close's final sync, with
// the aux journal on: it frames a barrier over any shard progress since
// the last one (and, with records, the buffered records), syncs the shard
// WALs, then syncs the aux log and seals its head. Once the epoch has
// barriers, a shard head is sealed only as far as the claims of the
// barrier under the previous aux head: were it sealed further, a power
// cut that lost the aux log's newest barriers would leave sealed pool
// history no durable tenant record explains, and recovery could neither
// cut it nor reconcile it. Records past a sealed shard head are synced
// all the same, and recovery replays them.
func (st *Store) flushAux(records bool) error {
	if err := st.failedErr(); err != nil {
		return err
	}
	st.aux.mu.Lock()
	if err := st.frameAuxLocked(records); err != nil {
		st.aux.mu.Unlock()
		return err
	}
	w := st.aux.w
	w.mu.Lock()
	at, epoch := walPos{seq: w.seq, chain: w.chain}, w.epoch
	w.mu.Unlock()
	claimed, sealed := st.aux.claimed, st.aux.sealed
	if claimed != nil {
		st.aux.mu.Unlock()
	} else {
		// No barrier yet: shard heads are sealed where their writers
		// stand, so the epoch's first barrier must wait until they are —
		// framed meanwhile, it could claim less than a head sealed after it.
		defer st.aux.mu.Unlock()
	}

	var first error
	for i, sw := range st.wals {
		sw.mu.Lock()
		var err error
		switch {
		case claimed == nil:
			err = sw.syncAndPublish()
		case sealed != nil && sw.epoch == epoch:
			err = sw.syncTo(&sealed[i])
		default:
			err = sw.syncTo(nil)
		}
		sw.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if claimed != nil {
		st.aux.mu.Lock()
		defer st.aux.mu.Unlock()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.epoch != epoch {
		return nil // a checkpoint reset the journal meanwhile: nothing of this epoch left to seal
	}
	if err := w.syncTo(&at); err != nil {
		return err
	}
	if claimed != nil {
		st.aux.sealed = claimed
	}
	return nil
}

// auxBarriers reports whether the current epoch's aux log has barriers,
// i.e. whether shard heads are bound to their claims (flushAux).
func (st *Store) auxBarriers() bool {
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	return st.aux.claimed != nil
}

// auxDirty reports unsynced or recovered-but-unclaimed tenant state — the
// state an aux-less checkpoint would silently discard.
func (st *Store) auxDirty() bool {
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	if st.aux.hasState || len(st.aux.buf) > 0 {
		return true
	}
	if w := st.aux.w; w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.seq > 0
	}
	return false
}

// auxCheckpointSection captures the tenant section for a checkpoint.
// Called with tenant operations frozen.
func (st *Store) auxCheckpointSection(src *auxSource) ([]byte, error) {
	if src == nil {
		return nil, nil
	}
	return src.snap()
}

// writeAuxSnap durably writes the aux checkpoint section for newEpoch,
// before the anchor that seals its digest becomes durable.
func (st *Store) writeAuxSnap(newEpoch uint64, body []byte) error {
	path := st.auxSnapPath(newEpoch)
	f, err := st.fs.Create(path)
	if err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := f.Write(body); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The section's directory entry must be durable before the anchor's:
	// an anchor claiming a section the directory lost would read as
	// tampering after a crash that was merely unlucky.
	return st.fs.SyncDir(st.opts.Dir)
}

// resetAux discards the buffered records (the just-written section
// captured their effects) and starts the aux log on the new epoch.
// Called from Checkpoint's commit callback, after the anchor is durable,
// with tenant operations frozen.
func (st *Store) resetAux(newEpoch uint64) error {
	st.aux.mu.Lock()
	defer st.aux.mu.Unlock()
	st.aux.buf = nil
	st.aux.claimed, st.aux.sealed = nil, nil
	st.aux.hasState = false
	w := st.aux.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reset(newEpoch)
}

// auxLog is the aux log as recovery scanned it, cut to what it releases.
type auxLog struct {
	walLog
	noHead  bool     // no head file: a directory from before the aux journal
	caps    []uint64 // per-shard bound on the shard WAL replay; nil replays them whole
	barrier bool     // the release point is a barrier, so barriers stay in force
	cut     uint64   // records dropped past the release point

	// How Recover resumes the shard WALs and the aux log (resume).
	shardMode, mode resumeMode
}

// scanAux verifies the aux log against its sealed head (same rollback and
// tampering refusals as a shard WAL) and decides what recovery releases,
// given every shard WAL's recovered sequence number:
//
//   - records at or before the sealed head are committed and released; a
//     barrier among them that a shard WAL does not satisfy means the log
//     on disk lost pool history the sealed journal vouches for, and is
//     refused with ErrTrustTampered;
//   - beyond the head, records are released only up to the last barrier
//     every shard WAL satisfies. The first unsatisfied barrier, or a
//     trailing batch with no barrier, ends the log: it is cut there.
//
// When the last released record is a barrier, its claims bound the shard
// WAL replay (Recover), so the pool is cut at the same instant. When the
// log holds barriers but releases none of its own, the bound is the
// sealed shard heads: the pool history past them belongs to batches that
// were lost.
//
// Under FsyncBatch and FsyncOff, a log released up to a barrier is resumed
// as found, and so are the shard WALs: recovery may not seal a shard head
// past the claims of a barrier not yet sealed (flushAux), and syncing
// would only do the flusher's work on the restart path. The one exception
// is an epoch's first barrier when the log does not show it durable
// (frameAuxLocked): the aux log is synced then.
func (st *Store) scanAux(anc anchor, shardSeqs []uint64) (auxLog, error) {
	w := st.aux.w
	hb, herr := st.fs.ReadFile(w.headPath)
	if herr != nil {
		// No aux head. Legitimate only on a directory that predates the
		// aux journal (upgrade path, before the first aux-era checkpoint);
		// an anchor claiming an aux section proves the head was destroyed.
		if anc.HasAux {
			return auxLog{}, fmt.Errorf("%w: aux WAL head missing", ErrTrustTampered)
		}
		return auxLog{noHead: true}, nil
	}
	l, err := st.scanLog(w, hb, anc)
	if err != nil {
		if errors.Is(err, ErrWALTampered) {
			err = fmt.Errorf("%w: tenant journal: %v", ErrTenantTampered, err)
		}
		return auxLog{}, err
	}
	a := auxLog{walLog: l}
	var keep uint64
	var last []uint64 // claims of the release point, when it is a barrier
	var first uint64  // seq of the first released barrier
	released := 0     // released barriers
	saw := false
scan:
	for j, r := range l.recs {
		seq := uint64(j + 1)
		switch r.Kind {
		case recKindAux:
			if seq <= l.head.Seq {
				keep, last = seq, nil
			}
		case recKindAuxBarrier:
			saw = true
			claims, err := parseBarrier(r.Data, len(shardSeqs))
			if err != nil {
				return auxLog{}, fmt.Errorf("%w: tenant journal record %d: %v", ErrTenantTampered, seq, err)
			}
			if s := unsatisfied(claims, shardSeqs); s >= 0 {
				if seq <= l.head.Seq {
					return auxLog{}, fmt.Errorf("%w: sealed tenant journal barrier %d claims shard %d WAL seq %d, the log holds %d",
						ErrTrustTampered, seq, s, claims[s], shardSeqs[s])
				}
				break scan
			}
			keep, last = seq, claims
			if released++; released == 1 {
				first = seq
			}
		default:
			return auxLog{}, fmt.Errorf("%w: tenant journal carries pool record kind %d", ErrTenantTampered, r.Kind)
		}
	}
	switch {
	case last != nil:
		a.caps, a.barrier = last, true
	case saw:
		a.caps = make([]uint64, len(shardSeqs)) // Recover never cuts below a sealed head
	}
	if a.barrier && st.opts.Fsync != FsyncAlways {
		a.shardMode, a.mode = resumeAsFound, resumeAsFound
		if released < 2 && first > l.head.Seq {
			a.mode = resumeSync
		}
	}
	a.cut = a.cutTo(st.key, keep)
	if a.cut > 0 && st.opts.Logf != nil {
		st.opts.Logf("tenant journal: cutting %d records past the last barrier the shard WALs satisfy", a.cut)
	}
	return a, nil
}

// parseBarrier decodes a barrier's per-shard claims.
func parseBarrier(b []byte, shards int) ([]uint64, error) {
	if len(b) != 8*shards {
		return nil, fmt.Errorf("barrier of %d bytes for %d shards", len(b), shards)
	}
	claims := make([]uint64, shards)
	for i := range claims {
		claims[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return claims, nil
}

// unsatisfied returns the first shard whose recovered log ends short of
// its claim, or -1.
func unsatisfied(claims, shardSeqs []uint64) int {
	for i, c := range claims {
		if c > shardSeqs[i] {
			return i
		}
	}
	return -1
}

// recoverAux installs the scanned aux log: verify the checkpoint section
// against the anchor's digest, hand the released records plus the
// replay-captured events to TakeAuxRecovery, and prime the writer to
// continue the log where the release point left it. events are the
// structural mutations the shard-WAL replay regenerated, in per-shard
// order.
func (st *Store) recoverAux(anc anchor, a *auxLog, events []AuxEvent) error {
	out := &AuxRecovery{}
	w := st.aux.w
	if a.noHead {
		if err := func() error { w.mu.Lock(); defer w.mu.Unlock(); return w.reset(anc.Epoch) }(); err != nil {
			return fmt.Errorf("persist: aux WAL reset: %w", err)
		}
		st.aux.recovered = out
		return nil
	}
	for _, r := range a.recs {
		if r.Kind == recKindAux {
			out.Recs = append(out.Recs, append([]byte(nil), r.Data...))
		}
	}
	if anc.HasAux {
		sb, serr := st.fs.ReadFile(st.auxSnapPath(anc.Epoch))
		if serr != nil {
			return fmt.Errorf("%w: tenant checkpoint for epoch %d missing", ErrTenantTampered, anc.Epoch)
		}
		want := auxDigest(st.key, anc.Epoch, sb)
		if !hmac.Equal(want[:], anc.AuxDigest[:]) {
			return fmt.Errorf("%w: tenant checkpoint for epoch %d fails its sealed digest", ErrTenantTampered, anc.Epoch)
		}
		out.Snap = sb
	}
	if anc.HasAux || len(out.Recs) > 0 {
		// Tenant mode was active: the replayed structural events belong to
		// its history. (Without any tenant state they are raw-API traffic
		// and meaningless to the tenant layer.)
		out.Events = events
	}
	st.aux.hasState = len(out.Snap) > 0 || len(out.Recs) > 0
	w.mu.Lock()
	err := st.resume(w, anc.Epoch, &a.walLog, a.mode)
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("persist: aux WAL reopen: %w", err)
	}
	if a.barrier {
		// The log ends at a barrier and the shard WALs were cut to its
		// claims: barriers stay in force this epoch. Sealed there too, the
		// shard heads may follow the claims at the flusher's next tick;
		// left as found, they wait until the aux head seals a barrier.
		pos := make([]walPos, len(st.wals))
		for i, sw := range st.wals {
			pos[i] = walPos{seq: sw.seq, chain: sw.chain}
		}
		st.aux.claimed = pos
		if a.mode == resumeSeal {
			st.aux.sealed = pos
		}
	}
	st.aux.recovered = out
	return nil
}
