package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/shard"
)

// Online shard repair: a quarantined shard is re-materialized from the
// last verified snapshot plus a replay of its own WAL — the same sources
// crash recovery uses — then re-verified block by block against its
// sealed chip state (GPC + Bonsai root) and atomically swapped back into
// the pool, all while the other shards keep serving. The epoch is stable
// for the whole rebuild because checkpoints refuse to run while any shard
// is latched (shard.ErrPoolDegraded), so the anchored snapshot and the
// shard's log cannot move underneath the repairer.

// RepairShard attempts one online repair of quarantined shard i and
// blocks until it succeeds or fails. On success the shard is serving
// again; on failure it returns to quarantine for the monitor (or a later
// manual call) to retry. Exactly one repairer can hold a shard, so a
// concurrent monitor attempt makes this return an error rather than
// racing it.
func (st *Store) RepairShard(i int) error {
	return st.repairAttempt(i, false)
}

// repairAttempt claims shard i, rebuilds it, and either adopts the
// rebuilt controller or releases the claim. last=true means the attempt
// budget is spent: a failure trips the crash-loop breaker and the shard
// stays down (pool stays up) until an operator uncordons it.
func (st *Store) repairAttempt(i int, last bool) error {
	st.ckptMu.Lock()
	pool, epoch, closed := st.pool, st.epoch, st.closed
	st.ckptMu.Unlock()
	if closed {
		return ErrClosed
	}
	if pool == nil {
		return errors.New("persist: RepairShard before Recover")
	}
	if err := st.failedErr(); err != nil {
		return err
	}
	if !pool.BeginRepair(i) {
		return fmt.Errorf("persist: repair shard %d: not quarantined (state %v)", i, pool.ShardStates()[i])
	}
	if st.met != nil {
		defer func(t0 time.Time) { st.met.observeRepair(time.Since(t0)) }(time.Now())
	}
	sm, err := st.rebuildShard(pool, i, epoch)
	if err != nil {
		pool.FailRepair(i, last)
		if last {
			err = fmt.Errorf("persist: shard %d crash-loop breaker tripped, shard stays down: %w", i, err)
		}
		return err
	}
	if err := pool.AdoptShard(i, sm); err != nil {
		return fmt.Errorf("persist: repair shard %d: %w", i, err)
	}
	return nil
}

// rebuildShard reconstructs shard i's controller from durable state and
// re-primes its WAL writer. The returned controller has passed a full
// verification sweep against the sealed anchor. Any trust violation in
// the snapshot or log makes the repair fail (the shard has no
// uncompromised source to heal from).
func (st *Store) rebuildShard(pool *shard.Pool, i int, epoch uint64) (*core.SecureMemory, error) {
	ab, err := st.fs.ReadFile(st.anchorPath())
	if err != nil {
		return nil, fmt.Errorf("%w: anchor unreadable during repair: %v", ErrTrustTampered, err)
	}
	anc, err := parseAnchor(st.key, ab)
	if err != nil {
		return nil, err
	}
	if anc.Epoch != epoch {
		return nil, fmt.Errorf("%w: anchor epoch %d does not match live epoch %d", ErrTrustTampered, anc.Epoch, epoch)
	}
	if i < 0 || i >= len(anc.Chips) {
		return nil, fmt.Errorf("persist: repair shard %d: anchor has %d shards", i, len(anc.Chips))
	}
	f, size, err := st.fs.Open(st.snapPath(anc.Epoch))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot for epoch %d unreadable during repair: %v", ErrSnapshotTampered, anc.Epoch, err)
	}
	defer f.Close()
	ccfg, secs, err := snapshotSections(pool.Config(), anc, f, size)
	if err != nil {
		return nil, err
	}

	// Under tenant-journal barriers a shard head may only be sealed within
	// a durable barrier's claims (flushAux): the re-primed writer then syncs
	// its records and leaves the head where it was.
	mode := resumeSeal
	if st.auxBarriers() {
		mode = resumeSync
	}

	// Rebuild the shard over its log and re-prime the writer, under its
	// lock so the flusher cannot interleave. Same path and tolerance rules
	// as recovery: a torn tail beyond the sealed head is truncated, any
	// chain violation fails the repair, deterministic op rejections are
	// reproduced, and records durable beyond the head (synced but crashed
	// or faulted before sealing) are replayed — a write that was failed to
	// its client may still be applied, which is the usual indeterminacy of
	// a failed write, never loss of an acknowledged one.
	w := st.wals[i]
	w.mu.Lock()
	defer w.mu.Unlock()
	hb, err := st.fs.ReadFile(w.headPath)
	if err != nil {
		return nil, fmt.Errorf("%w: WAL head for shard %d unreadable during repair: %v", ErrTrustTampered, i, err)
	}
	l, err := st.scanLog(w, hb, anc)
	if err != nil {
		return nil, err
	}
	r, err := restoreShard(ccfg, anc, i, secs[i], l.recs)
	if err != nil {
		return nil, err
	}

	// The rebuilt controller is good; re-prime the writer to continue the
	// verified log in place (fixing any poisoned/torn live state).
	if err := st.resume(w, anc.Epoch, &l, mode); err != nil {
		return nil, fmt.Errorf("persist: shard %d WAL reopen during repair: %w", i, err)
	}
	if st.opts.Logf != nil {
		st.opts.Logf("shard %d rebuilt: %d WAL records replayed over epoch-%d snapshot, subtree re-verified", i, r.replayed, anc.Epoch)
	}
	return r.sm, nil
}

// repairLoop is the background repair monitor: it reacts to fault
// notifications (and a poll tick as backstop), retries failed repairs
// with jittered exponential backoff, and trips the per-shard crash-loop
// breaker after RepairAttempts consecutive failures so a persistently
// faulting shard stays down without taking the pool with it.
func (st *Store) repairLoop() {
	defer st.bg.Done()
	st.ckptMu.Lock()
	pool := st.pool
	st.ckptMu.Unlock()
	if pool == nil {
		return
	}
	type sched struct {
		attempts int
		next     time.Time
	}
	scheds := make([]sched, pool.Shards())
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTicker(st.opts.RepairPoll)
	defer t.Stop()
	for {
		select {
		case <-st.stopc:
			return
		case <-t.C:
		case <-pool.Faults():
		}
		if st.failedErr() != nil {
			continue // pool-wide fail-closed latch: nothing to heal into
		}
		now := time.Now()
		for i, s := range pool.ShardStates() {
			if s != shard.StateQuarantined {
				if s == shard.StateServing || s == shard.StateDown {
					// Healed, or the breaker already fired: a future
					// quarantine starts a fresh attempt budget.
					scheds[i] = sched{}
				}
				continue
			}
			if now.Before(scheds[i].next) {
				continue
			}
			scheds[i].attempts++
			last := scheds[i].attempts >= st.opts.RepairAttempts
			err := st.repairAttempt(i, last)
			if err == nil {
				scheds[i] = sched{}
				if st.opts.Logf != nil {
					st.opts.Logf("shard %d repaired online and serving again", i)
				}
				continue
			}
			if st.opts.Logf != nil {
				st.opts.Logf("shard %d repair attempt %d/%d failed: %v", i, scheds[i].attempts, st.opts.RepairAttempts, err)
			}
			backoff := st.opts.RepairBackoff << (scheds[i].attempts - 1)
			if backoff > st.opts.RepairMaxBackoff || backoff <= 0 {
				backoff = st.opts.RepairMaxBackoff
			}
			// ±25% jitter so a fleet of repairers doesn't thunder in step.
			backoff += time.Duration(rng.Int63n(int64(backoff)/2+1)) - backoff/4
			scheds[i].next = now.Add(backoff)
		}
	}
}
