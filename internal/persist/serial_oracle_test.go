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

// recoverSerial is Recover as it ran before shards were rebuilt
// concurrently: one goroutine resumes the whole pool through
// shard.Resume, replays every shard's WAL through the pool in shard order
// and reopens each writer after its replay, then recovers the tenant
// journal and sweeps the pool last. It is the reference the concurrent
// Recover is held to (recover_oracle_test.go, tenant_crash_test.go): the
// same roots, GPCs, pool image, RecoveryInfo counts and AuxRecovery, and
// the same error class on a tampered directory.
func (st *Store) recoverSerial(cfg shard.Config) (*shard.Pool, RecoveryInfo, error) {
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
			img, rerr := pool.ReplayOp(i, op)
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
