package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
)

// scenarios names the fault schedules the harness knows how to run.
// Each one injects a different fault class into a live, durable pool
// and checks the same three invariants afterwards: acked writes
// survive, tampering is detected (never served), and untouched shards
// keep serving throughout. The tenant schedules attack the OS-visible
// substrate (address spaces, copy-on-write forks, swapped pages on the
// attacker-owned disk) rather than the memory bus.
var scenarios = []string{
	"bitflip-data",     // flip a ciphertext bit on the memory bus
	"bitflip-counter",  // flip a bit in a page's counter block
	"bitflip-treenode", // flip a bit in a coalesced interior tree node
	"rollback",         // record whole shard memory, replay it after writes
	"wal-fault",        // one shard's WAL device dies (every op errors)
	"torn-append",      // WAL appends land half a record then error
	"slow-io",          // the disk stalls but never fails
	"checkpoint",       // cut a checkpoint mid-run (WAL truncation in the mix)

	"tenant-swap-tamper",     // corrupt a swapped-out page's counter block on disk
	"tenant-fork-kill",       // destroy a tenant in the middle of a fork storm
	"tenant-swap-pressure",   // working set ≫ resident budget, shadow-checked
	"tenant-restart-recover", // power-cycle a tenant-durable store mid-churn
}

// The pool under test: one victim shard and two bystanders, four pages
// each, on the real filesystem under the fault wrapper.
const (
	poolShards    = 3
	pagesPerShard = 4
)

// runStats counts what a run did and found.
type runStats struct {
	scenarios       int
	ackedWrites     int
	failedWrites    int
	tampersInjected int
	tampersDetected int
	fsFaults        uint64
	heals           int
	modelReads      int
	poolFaults      uint64
	poolRepairs     uint64
	tenantsCreated  int
	tenantForks     int
	tenantSwaps     int
}

// harness drives a durable secure-memory service through fault
// scenarios while keeping a history of every write. Methods are not
// safe for concurrent use: the harness is the single client, which
// keeps seeded runs deterministic.
type harness struct {
	dir   string
	logf  func(format string, args ...any)
	fs    *faultFS
	store *persist.Store
	pool  *shard.Pool
	inj   *injector
	obs   *obs.Service
	rng   *rand.Rand

	// traceSeq stamps every harness request with a distinct trace ID, so
	// fault scenarios double as soak tests for the per-shard trace rings
	// and verifyObs can hold the spans to the acceptance timeline.
	traceSeq uint64

	// model is the history of every pool write. A failed write may
	// surface after a repair (it may have reached the log — the usual
	// indeterminacy of a failed write, never loss of an acked one).
	model   *history.Model[layout.Addr]
	byShard [][]layout.Addr
	stats   runStats
}

var harnessKey = []byte("chaos-matrix-key") // 16 bytes

const valLen = 32

// newHarness opens a durable store in dir under fault injection, seeded
// by seed, and recovers its pool. The repair monitor runs hot
// (millisecond cadence, effectively no breaker) so scenarios heal
// quickly once faults clear.
func newHarness(dir string, seed int64, logf func(string, ...any)) (*harness, error) {
	ffs := wrapFS(seed)
	obsSvc := obs.NewService(poolShards, obs.DefaultRingSize)
	st, err := persist.Open(persist.Options{
		Dir:              dir,
		Key:              harnessKey,
		Fsync:            persist.FsyncAlways,
		FsyncInterval:    time.Hour, // no background flusher races in seeded runs
		RepairPoll:       2 * time.Millisecond,
		RepairBackoff:    time.Millisecond,
		RepairMaxBackoff: 8 * time.Millisecond,
		RepairAttempts:   1_000_000,
		Logf:             logf,
		FS:               ffs,
		Obs:              obsSvc,
	})
	if err != nil {
		return nil, err
	}
	pool, _, err := st.Recover(shard.Config{
		Shards: poolShards,
		Core: core.Config{
			DataBytes:  poolShards * pagesPerShard * layout.PageSize,
			Key:        harnessKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  4,
			// Batch commits run the coalesced engine with parallel node
			// hashing; the write-back node cache stays off so injected
			// tree-node tampering lands where the next read looks.
			TreeUpdateWorkers: 2,
		},
		Obs: obsSvc,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &harness{
		dir:     dir,
		logf:    logf,
		fs:      ffs,
		store:   st,
		pool:    pool,
		inj:     &injector{pool: pool},
		obs:     obsSvc,
		rng:     rand.New(rand.NewSource(seed)),
		model:   history.New[layout.Addr](),
		byShard: make([][]layout.Addr, poolShards),
	}, nil
}

// close tears the service down (pool drain + final WAL sync).
func (h *harness) close() error {
	err := h.pool.Close()
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// counts returns the run's counters, folding in the pool's own.
func (h *harness) counts() runStats {
	s := h.stats
	s.fsFaults = h.fs.injected()
	ps := h.pool.Stats()
	s.poolFaults = ps.Faults
	s.poolRepairs = ps.Repairs
	return s
}

func ctx10() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// metaFor derives the request metadata for an address: fixed AISE seed
// components (reads must present the same VirtAddr/PID the write used)
// plus a fresh trace ID, so every harness request lands a span in its
// shard's trace ring. Trace IDs are sequential and therefore as
// deterministic as the rest of the schedule.
func (h *harness) metaFor(addr layout.Addr) core.Meta {
	h.traceSeq++
	return core.Meta{VirtAddr: uint64(addr), PID: 7, Trace: h.traceSeq}
}

// pickAddr returns a random block-aligned pool address on shard sh.
// Pool page k of shard s is global page k*Shards+s.
func (h *harness) pickAddr(sh int) layout.Addr {
	localPage := h.rng.Intn(pagesPerShard)
	globalPage := localPage*poolShards + sh
	block := h.rng.Intn(int(layout.BlocksPerPage))
	return layout.Addr(globalPage)*layout.PageSize + layout.Addr(block)*layout.BlockSize
}

// localAddr converts a pool address to its shard-local address.
func (h *harness) localAddr(addr layout.Addr) layout.Addr {
	page := uint64(addr) / layout.PageSize
	local := (page/uint64(poolShards))*layout.PageSize + uint64(addr)%layout.PageSize
	return layout.Addr(local)
}

// writeOne issues one random write to shard sh and records its outcome
// in the model. It returns the address written alongside the write's
// outcome.
func (h *harness) writeOne(sh int) (layout.Addr, error) {
	addr := h.pickAddr(sh)
	val := make([]byte, valLen)
	h.rng.Read(val)
	ctx, cancel := ctx10()
	defer cancel()
	err := h.pool.Write(ctx, addr, val, h.metaFor(addr))
	if !h.model.Has(addr) {
		h.byShard[sh] = append(h.byShard[sh], addr)
	}
	if err == nil {
		h.stats.ackedWrites++
		h.model.Ack(addr, val)
	} else {
		h.stats.failedWrites++
		h.model.Fail(addr, val)
	}
	return addr, err
}

// burst writes n values spread across all shards; every write must ack.
func (h *harness) burst(n int) error {
	for i := 0; i < n; i++ {
		if _, err := h.writeOne(i % poolShards); err != nil {
			return fmt.Errorf("chaos: burst write failed with no fault armed: %w", err)
		}
	}
	return nil
}

// modelAddrOn returns a model address on shard sh, writing one first if
// none exists yet.
func (h *harness) modelAddrOn(sh int) (layout.Addr, error) {
	if len(h.byShard[sh]) == 0 {
		if _, err := h.writeOne(sh); err != nil {
			return 0, err
		}
	}
	return h.byShard[sh][h.rng.Intn(len(h.byShard[sh]))], nil
}

// checkModel reads back every modeled address and checks it against
// the history. Call it with all shards serving; any read error or
// illegal value is an invariant violation.
func (h *harness) checkModel() error {
	n, err := h.model.Verify(func(addr layout.Addr) ([]byte, error) {
		buf := make([]byte, valLen)
		ctx, cancel := ctx10()
		defer cancel()
		return buf, h.pool.Read(ctx, addr, buf, h.metaFor(addr))
	})
	h.stats.modelReads += n
	if err != nil {
		return fmt.Errorf("chaos: model: %w", err)
	}
	return nil
}

// expectDetected reads addr and requires the service to refuse it: a
// tampered or quarantined error. Returning data — any data — after a
// tamper is the one unforgivable outcome.
func (h *harness) expectDetected(addr layout.Addr) error {
	buf := make([]byte, valLen)
	ctx, cancel := ctx10()
	defer cancel()
	err := h.pool.Read(ctx, addr, buf, h.metaFor(addr))
	if err == nil {
		return fmt.Errorf("chaos: TAMPER SERVED: read of tampered %#x returned %x with no error", addr, buf)
	}
	if !errors.Is(err, core.ErrTampered) && !errors.Is(err, shard.ErrShardQuarantined) {
		return fmt.Errorf("chaos: tampered read %#x failed with unexpected error: %w", addr, err)
	}
	h.stats.tampersDetected++
	return nil
}

// expectBystandersServe proves fault containment: every shard except
// victim must ack a fresh write while the victim is latched or under
// repair.
func (h *harness) expectBystandersServe(victim int) error {
	for sh := 0; sh < poolShards; sh++ {
		if sh == victim {
			continue
		}
		if _, err := h.writeOne(sh); err != nil {
			return fmt.Errorf("chaos: CONTAINMENT BREACH: shard %d failed while shard %d was the victim: %w", sh, victim, err)
		}
	}
	return nil
}

// waitAllServing blocks until every shard is back in StateServing.
func (h *harness) waitAllServing(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, s := range h.pool.ShardStates() {
			if s != shard.StateServing {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: shards not healed after %v: states %v", timeout, h.pool.ShardStates())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// run executes one named scenario and checks its invariants.
func (h *harness) run(scenario string) error {
	h.stats.scenarios++
	victim := h.rng.Intn(poolShards)
	h.logf("scenario %s (victim shard %d)", scenario, victim)
	switch scenario {
	case "bitflip-data":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		addr, err := h.modelAddrOn(victim)
		if err != nil {
			return err
		}
		h.stats.tampersInjected++
		if err := h.inj.bitflipData(victim, h.localAddr(addr), h.rng.Intn(valLen*8)); err != nil {
			return err
		}
		if err := h.expectDetected(addr); err != nil {
			return err
		}
		if err := h.expectBystandersServe(victim); err != nil {
			return err
		}
	case "bitflip-counter":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		addr, err := h.modelAddrOn(victim)
		if err != nil {
			return err
		}
		// One counter block per page under AISE; the victim page's
		// counter block index is its shard-local page number.
		localPage := int(uint64(h.localAddr(addr)) / layout.PageSize)
		h.stats.tampersInjected++
		if err := h.inj.bitflipRegion(victim, "counters", localPage, h.rng.Intn(layout.BlockSize*8)); err != nil {
			return err
		}
		if err := h.expectDetected(addr); err != nil {
			return err
		}
		if err := h.expectBystandersServe(victim); err != nil {
			return err
		}
	case "bitflip-treenode":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		addr, err := h.modelAddrOn(victim)
		if err != nil {
			return err
		}
		// The victim page's counter block is tree leaf `localPage` (the
		// counters region is the tree's first leaf region, one counter
		// block per page under AISE), so its stored level-0 MAC is the
		// 16-byte slot at leaf*16 from the tree region base (default
		// 128-bit node MACs). Flip a bit inside that slot — the exact
		// interior bytes the coalesced batch engine rewrites — and the
		// next read of the page must refuse.
		const nodeMACBytes = 16
		localPage := int(uint64(h.localAddr(addr)) / layout.PageSize)
		slotByte := localPage * nodeMACBytes
		h.stats.tampersInjected++
		if err := h.inj.bitflipRegion(victim, "tree", slotByte/layout.BlockSize,
			(slotByte%layout.BlockSize)*8+h.rng.Intn(nodeMACBytes*8)); err != nil {
			return err
		}
		if err := h.expectDetected(addr); err != nil {
			return err
		}
		if err := h.expectBystandersServe(victim); err != nil {
			return err
		}
	case "rollback":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		adv, err := h.inj.recorder(victim)
		if err != nil {
			return err
		}
		// Writes after the recording are what the replay tries to erase.
		target, err := h.writeOne(victim)
		if err != nil {
			return fmt.Errorf("chaos: post-recording write: %w", err)
		}
		if _, err := h.writeOne(victim); err != nil {
			return fmt.Errorf("chaos: post-recording write: %w", err)
		}
		h.stats.tampersInjected++
		adv.ReplayAll()
		if err := h.expectDetected(target); err != nil {
			return err
		}
		if err := h.expectBystandersServe(victim); err != nil {
			return err
		}
	case "wal-fault":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		h.fs.arm(fsFaults{PathSubstr: fmt.Sprintf("wal-%03d", victim), ErrRate: 1})
		// The append fails and so does the rewind (the device is gone):
		// an unsafe durability fault that must quarantine this shard only.
		if _, err := h.writeOne(victim); err == nil {
			return fmt.Errorf("chaos: write acked while shard %d's WAL device was dead", victim)
		}
		if st := h.pool.ShardStates()[victim]; st == shard.StateServing {
			return fmt.Errorf("chaos: shard %d still serving after unsafe durability fault", victim)
		}
		if err := h.expectBystandersServe(victim); err != nil {
			return err
		}
		h.fs.disarm()
	case "torn-append":
		if err := h.burst(2 * poolShards); err != nil {
			return err
		}
		h.fs.arm(fsFaults{PathSubstr: fmt.Sprintf("wal-%03d", victim), TornRate: 1})
		// A torn append is rewound cleanly: the batch fails but the log
		// still matches execution, so the shard must keep serving.
		if _, err := h.writeOne(victim); err == nil {
			return fmt.Errorf("chaos: write acked while shard %d's WAL tore every append", victim)
		}
		h.fs.disarm()
		if st := h.pool.ShardStates()[victim]; st != shard.StateServing {
			return fmt.Errorf("chaos: clean torn-append rewind latched shard %d into %s", victim, st)
		}
		if _, err := h.writeOne(victim); err != nil {
			return fmt.Errorf("chaos: shard %d refused a write after the torn-append device recovered: %w", victim, err)
		}
	case "slow-io":
		h.fs.arm(fsFaults{SlowRate: 0.5, SlowDelay: 2 * time.Millisecond})
		if err := h.burst(3 * poolShards); err != nil {
			return fmt.Errorf("chaos: slow I/O must stall, never fail: %w", err)
		}
		h.fs.disarm()
	case "checkpoint":
		if err := h.burst(poolShards); err != nil {
			return err
		}
		if err := h.store.Checkpoint(); err != nil {
			return fmt.Errorf("chaos: checkpoint on a healthy pool: %w", err)
		}
	case "tenant-swap-tamper":
		if err := h.runTenantSwapTamper(); err != nil {
			return err
		}
	case "tenant-fork-kill":
		if err := h.runTenantForkKill(); err != nil {
			return err
		}
	case "tenant-swap-pressure":
		if err := h.runTenantSwapPressure(); err != nil {
			return err
		}
	case "tenant-restart-recover":
		if err := h.runTenantRestartRecover(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("chaos: unknown scenario %q", scenario)
	}
	if err := h.waitAllServing(30 * time.Second); err != nil {
		return err
	}
	h.stats.heals++
	return h.checkModel()
}
