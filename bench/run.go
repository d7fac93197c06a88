package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"aisebmt/internal/server"
)

// shape is the run shape, identical for every workload: set-up
// repetitions, a warm-up, equal measured slices, restart repetitions.
type shape struct {
	seed          int64
	warm          time.Duration
	sliceLen      time.Duration
	slices        int
	setupReps     int
	restartReps   int
	restartWrites int // K: acked writes between the forced checkpoint and the SIGKILL
}

// extraColdStarts is how many verify-less cold starts an in-memory
// workload adds to its restart repetitions.
const extraColdStarts = 6

// tally counts every request the harness sent, in every phase.
type tally struct {
	attempted  int
	failed     int // any error, refusal, timeout or shadow mismatch
	mismatches int
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if errors.Is(err, errMismatch) {
			t.mismatches++
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
}

// fatalErr reports whether err means the connection is unusable (anything
// but a typed refusal from the daemon or a shadow mismatch), so the loop
// stops instead of failing every remaining op at memory speed.
func fatalErr(err error) bool {
	var se *server.StatusError
	return err != nil && !errors.Is(err, errMismatch) && !errors.As(err, &se)
}

// session is one live daemon with its connections, tenants and shadow.
type session struct {
	h       *harness
	w       *workload
	d       *daemon
	dataDir string
	clients []*server.Client
	ids     []uint32 // tenant IDs; nil on flat workloads
	sh      *shadow
	tally   tally
	notes   []string // first few failures, for the report
}

func (s *session) noteErr(phase string, err error) {
	if err != nil && len(s.notes) < 8 {
		s.notes = append(s.notes, phase+": "+err.Error())
	}
}

// target returns connection i's view of the daemon.
func (s *session) target(i int) target {
	if s.ids != nil {
		return &tenantTarget{tenantOps: wireTenantOps{s.clients[i]}, ids: s.ids, ppt: s.w.pagesPerTenant}
	}
	return wireFlat{s.clients[i]}
}

func (s *session) closeClients() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
}

// discard ends a session whose daemon is no longer wanted: SIGKILL, and
// the data dir removed at once, so that its dirty pages are dropped
// instead of being written back underneath the next phase.
func (s *session) discard() {
	s.closeClients()
	s.d.kill()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// start execs the daemon on the session's data dir (none on in-memory
// workloads), waits for its first OK reply and opens the remaining
// connections. It returns exec → first reply.
func (s *session) start() (time.Duration, error) {
	var err error
	if s.d, err = s.h.spawn(s.w, s.dataDir); err != nil {
		return 0, err
	}
	c, first, err := s.d.firstByte()
	if err != nil {
		return 0, err
	}
	s.clients = []*server.Client{c}
	for len(s.clients) < nConns {
		c, err := s.d.dial()
		if err != nil {
			return 0, err
		}
		s.clients = append(s.clients, c)
	}
	return first, nil
}

// setup is phase A: spawn on a fresh data dir, wait for the first OK
// reply, prefill every unit with a shadowed 4KiB write from both
// connections, one Verify. It returns exec → Verify OK and exec → first
// reply; the binary is already built.
func setup(h *harness, w *workload, seed int64) (*session, time.Duration, time.Duration, error) {
	s := &session{h: h, w: w, sh: newShadow(w.units())}
	var err error
	if w.durable {
		if s.dataDir, err = h.newDataDir(); err != nil {
			return nil, 0, 0, err
		}
	}
	first, err := s.start()
	if err != nil {
		return nil, 0, 0, err
	}
	for t := 0; t < w.tenants; t++ {
		id, err := s.clients[0].TenantCreate(w.pagesPerTenant)
		s.tally.note(err)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("tenant create: %w", err)
		}
		s.ids = append(s.ids, id)
	}
	errs := make([]error, nConns)
	var wg sync.WaitGroup
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer h.guard()
			errs[i] = prefill(s.target(i), s.sh, w, seed, i, nConns)
		}(i)
	}
	wg.Wait()
	s.tally.attempted += w.units()
	for _, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	err = s.clients[0].Verify()
	s.tally.note(err)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("verify after prefill: %w", err)
	}
	return s, time.Since(s.d.execAt), first, nil
}

// sliceRec is one connection's record of one measured slice.
type sliceRec struct {
	lat      [nClasses][]int64 // ns, successful requests only
	requests int
}

// loadResult is the measured phase as seen by the clients and /proc.
type loadResult struct {
	slices   [][]sliceRec // [conn][slice]
	cpuTicks []uint64     // utime+stime at each slice boundary (slices+1 values)
	sysTicks []uint64     // stime alone, same instants
	rssMiB   []float64    // peak RSS (VmHWM) at each slice end
}

// load is phase B: every connection runs its stream closed-loop through a
// warm-up and then slices×sliceLen of measurement, while the caller's
// goroutine samples the daemon's CPU time and RSS at the slice boundaries.
func (s *session) load(sp shape) (*loadResult, error) {
	res := &loadResult{slices: make([][]sliceRec, nConns)}
	start := time.Now().Add(20 * time.Millisecond) // common origin, after the goroutines are up
	mStart := start.Add(sp.warm)
	mEnd := mStart.Add(time.Duration(sp.slices) * sp.sliceLen)

	tallies := make([]tally, nConns)
	fatals := make([]error, nConns) // an error that ends the connection's loop
	firsts := make([]error, nConns) // the first failed request, for the report
	var wg sync.WaitGroup
	for i := 0; i < nConns; i++ {
		res.slices[i] = make([]sliceRec, sp.slices)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer s.h.guard()
			st := newStream(s.w, sp.seed, i, nConns)
			c := newConn(s.target(i), s.sh, payloadKey(sp.seed, i))
			recs := res.slices[i]
			obs := func(cls class, o op, t0, t1 time.Time, err error) {
				tallies[i].note(err)
				if err != nil && firsts[i] == nil {
					firsts[i] = fmt.Errorf("%s: %w", classNames[cls], err)
				}
				if fatalErr(err) {
					fatals[i] = err
				}
				if t1.Before(mStart) || !t1.Before(mEnd) {
					return
				}
				r := &recs[int(t1.Sub(mStart)/sp.sliceLen)]
				r.requests++
				if err == nil {
					r.lat[cls] = append(r.lat[cls], int64(t1.Sub(t0)))
				}
			}
			time.Sleep(time.Until(start))
			// Background work is issued by the harness, never by a daemon
			// timer: on durable workloads connection 0 opens the warm-up and
			// every slice with one checkpoint, so each slice carries exactly
			// the same amount of it.
			lastCkpt := -2
			for fatals[i] == nil {
				now := time.Now()
				if !now.Before(mEnd) {
					break
				}
				if i == 0 && s.w.durable {
					idx := -1
					if !now.Before(mStart) {
						idx = int(now.Sub(mStart) / sp.sliceLen)
					}
					if idx != lastCkpt {
						lastCkpt = idx
						c.do(op{kind: opCheckpoint}, obs)
						continue
					}
				}
				c.do(st.next(), obs)
			}
		}(i)
	}
	// A /proc read fails only if the daemon died; the connections then fail
	// too and their loops end, so the error is reported after they are in.
	var procErr error
	for b := 0; b <= sp.slices && procErr == nil; b++ {
		time.Sleep(time.Until(mStart.Add(time.Duration(b) * sp.sliceLen)))
		u, st, err := s.d.cpuTicks()
		procErr = err
		res.cpuTicks = append(res.cpuTicks, u+st)
		res.sysTicks = append(res.sysTicks, st)
		if b > 0 && procErr == nil {
			var rss float64
			rss, procErr = s.d.rssMiB()
			res.rssMiB = append(res.rssMiB, rss)
		}
	}
	wg.Wait()
	for i := range tallies {
		s.tally.add(tallies[i])
		s.noteErr(fmt.Sprintf("connection %d", i), firsts[i])
		if fatals[i] != nil {
			return nil, fmt.Errorf("connection %d: %w\n%s", i, fatals[i], s.d.logTail())
		}
	}
	if procErr != nil {
		return nil, fmt.Errorf("reading the daemon's /proc entries: %w", procErr)
	}
	return res, nil
}

// perSlice reduces the measured phase to one value per slice for each of
// the client- and /proc-observed end-to-end metrics.
func (r *loadResult) perSlice(sp shape) map[string][]float64 {
	out := map[string][]float64{}
	for b := 0; b < sp.slices; b++ {
		var reqs int
		var lat [nClasses][]int64
		for _, conn := range r.slices {
			reqs += conn[b].requests
			for c := range lat {
				lat[c] = append(lat[c], conn[b].lat[c]...)
			}
		}
		rd, wr := usOf(lat[clsRead]), usOf(lat[clsWrite])
		out["ops_per_s"] = append(out["ops_per_s"], float64(reqs)/sp.sliceLen.Seconds())
		out["read_p50_us"] = append(out["read_p50_us"], percentile(rd, 50))
		out["read_p90_us"] = append(out["read_p90_us"], percentile(rd, 90))
		out["write_p50_us"] = append(out["write_p50_us"], percentile(wr, 50))
		out["write_p90_us"] = append(out["write_p90_us"], percentile(wr, 90))
		cpuUS := float64(r.cpuTicks[b+1]-r.cpuTicks[b]) * 1e6 / clockTick
		out["daemon_cpu_us_per_op"] = append(out["daemon_cpu_us_per_op"], cpuUS/float64(max(reqs, 1)))
		out["daemon_rss_mib"] = append(out["daemon_rss_mib"], r.rssMiB[b])
	}
	return out
}

// crashWrites forces a checkpoint and then writes K shadowed acked writes
// on connection 0, so a crash right after it has exactly K WAL records to
// replay over a fresh snapshot. It returns the ops written.
func (s *session) crashWrites(sp shape, rep int) ([]op, error) {
	err := s.clients[0].Hibernate()
	s.tally.note(err)
	if err != nil {
		return nil, fmt.Errorf("checkpoint before crash: %w", err)
	}
	ww := *s.w
	ww.readFrac, ww.forkFrac = 0, 0
	st := newStream(&ww, sp.seed+int64(1000+rep), 0, 1)
	c := newConn(s.target(0), s.sh, payloadKey(sp.seed+int64(1000+rep), 0))
	written := make([]op, 0, sp.restartWrites+64)
	for i := 0; i < sp.restartWrites; i++ {
		o := st.next()
		c.do(o, func(_ class, _ op, _, _ time.Time, werr error) {
			s.tally.note(werr)
			err = werr
		})
		if err != nil {
			return nil, fmt.Errorf("write before crash: %w", err)
		}
		written = append(written, o)
	}
	return written, nil
}

// crashOnce is one repetition of phase C on a durable workload: force a
// checkpoint, write K shadowed acked writes, SIGKILL, re-exec on the same
// data dir, time the first OK reply and a full-pool Verify, then read back
// all K spans plus a sample of other units; any difference is a lost
// acknowledged write.
func (s *session) crashOnce(sp shape, rep int) (firstMS, verifiedMS float64, lost int, err error) {
	written, err := s.crashWrites(sp, rep)
	if err != nil {
		return 0, 0, 0, err
	}
	s.closeClients()
	s.d.kill()

	if firstMS, verifiedMS, err = s.coldStart(); err != nil {
		return 0, 0, 0, err
	}
	// The sample has a generator of its own so the check does not depend on
	// what the crash stream happened to touch.
	rng := rand.New(rand.NewSource(sp.seed + int64(rep)))
	for i := 0; i < 64; i++ {
		written = append(written, op{unit: uint32(rng.Intn(s.w.units())), n: pageSize})
	}
	t := s.target(0)
	for _, o := range written {
		got, rerr := t.read(o)
		if rerr == nil && !s.sh.check(o, got) {
			rerr = errMismatch
			lost++
		}
		s.tally.note(rerr)
		s.noteErr("read-back after restart", rerr)
		if fatalErr(rerr) {
			return 0, 0, lost, fmt.Errorf("read-back after restart: %w", rerr)
		}
	}
	return firstMS, verifiedMS, lost, nil
}

// coldStart starts the daemon and times exec → first OK reply and exec →
// full-pool Verify OK, so verification that a lazy recovery defers still
// shows.
func (s *session) coldStart() (firstMS, verifiedMS float64, err error) {
	first, err := s.start()
	if err != nil {
		return 0, 0, err
	}
	err = s.clients[0].Verify()
	verified := time.Since(s.d.execAt)
	s.tally.note(err)
	if err != nil {
		return 0, 0, fmt.Errorf("verify after restart: %w", err)
	}
	return float64(first) / 1e6, float64(verified) / 1e6, nil
}

// e2eResult is one workload's end-to-end row.
type e2eResult struct {
	Workload        string         `json:"workload"`
	Metrics         map[string]agg `json:"metrics"` // keyed by e2eMetrics names
	OpsAttempted    int            `json:"ops_attempted"`
	OpsFailed       int            `json:"ops_failed"`
	ShadowMismatch  int            `json:"shadow_mismatches"`
	LostAckedWrites int            `json:"lost_acked_writes"`
	Notes           []string       `json:"notes,omitempty"`
}

// ok reports whether the run passed every correctness gate.
func (r *e2eResult) ok() bool {
	return r.OpsFailed == 0 && r.ShadowMismatch == 0 && r.LostAckedWrites == 0
}

// runE2E runs phases A, B and C for one workload with tracing off.
func runE2E(h *harness, w *workload, sp shape) (*e2eResult, error) {
	res := &e2eResult{Workload: w.name, Metrics: map[string]agg{}}
	var total tally

	// Phase A, repeated: only the last daemon is kept for the measurement.
	var s *session
	var setups []float64
	for rep := 0; rep < sp.setupReps; rep++ {
		if s != nil {
			s.discard()
			total.add(s.tally)
		}
		var took time.Duration
		var err error
		if s, took, _, err = setup(h, w, sp.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	samples := map[string][]float64{"setup_s": setups}
	progress("%s: %d set-ups done", w.name, sp.setupReps)

	lr, err := s.load(sp)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	for name, vals := range lr.perSlice(sp) {
		samples[name] = vals
	}
	progress("%s: measured phase done", w.name)

	// Phase C. An in-memory daemon has nothing to recover: its loaded
	// instance gets the SIGTERM gate (drain and verify must exit 0) and each
	// repetition is a cold start of an empty pool.
	var firsts, verifieds []float64
	if !w.durable {
		s.closeClients()
		if err := s.d.term(); err != nil {
			return nil, err
		}
	}
	for rep := 0; rep < sp.restartReps; rep++ {
		var f, v float64
		if w.durable {
			var lost int
			f, v, lost, err = s.crashOnce(sp, rep)
			res.LostAckedWrites += lost
		} else {
			if rep > 0 {
				s.discard()
			}
			f, v, err = s.coldStart()
		}
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", rep, err)
		}
		firsts, verifieds = append(firsts, f), append(verifieds, v)
	}
	// An in-memory cold start answers in ≈10ms, which is within the jitter
	// of starting a process at all; a few more starts without the Verify
	// cost next to nothing and give the minimum something to choose from.
	for rep := 0; !w.durable && rep < extraColdStarts; rep++ {
		s.discard()
		first, err := s.start()
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		firsts = append(firsts, float64(first)/1e6)
	}
	samples["restart_to_first_byte_ms"], samples["restart_to_verified_ms"] = firsts, verifieds
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = aggregate(samples[m.name], m.pick)
	}

	// The last daemon of a durable workload holds the run's data: SIGTERM
	// makes it drain, verify and cut its final checkpoint. The last cold
	// start of an in-memory workload is empty and has passed its gate.
	if w.durable {
		s.closeClients()
		if err := s.d.term(); err != nil {
			return nil, err
		}
	}
	s.discard()
	total.add(s.tally)
	progress("%s: restarts done", w.name)
	res.OpsAttempted, res.OpsFailed, res.ShadowMismatch = total.attempted, total.failed, total.mismatches
	res.Notes = s.notes
	return res, nil
}
