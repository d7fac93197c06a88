// Command bench is the repository's one repeatable service benchmark. It
// builds cmd/secmemd, spawns the real daemon per workload, drives it
// closed-loop over loopback through internal/server.Client, checks every
// reply against a shadow, and prints every metric by name and unit.
//
//	go run ./bench                              # all four workloads, end to end
//	go run ./bench -workload mem_point -trace 1 # one workload's layer ladder
//	go run ./bench -selfcheck                   # the noise protocol
//	go run ./bench -quick                       # one 2s slice, 1 restart: a smoke
//
// See bench/README.md for the metric definitions and the stated limits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// sliceLen is fixed: a shorter run gets fewer slices, never shorter ones,
// so one slice always holds enough requests for a stable p90.
const sliceLen = 3 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		wlName    = flag.String("workload", "", "workload to run (default: all): mem_point, mem_bulk, durable_mixed, tenant_churn")
		seed      = flag.Int64("seed", 1, "op-stream seed; the same seed gives the same ops")
		seconds   = flag.Int("seconds", 15, "measured phase length; it is cut into 3s slices")
		traceMode = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run that prints the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the e2e suite -runs times on the one binary and compare every metric against its bound in BENCHMARK.json")
		runs      = flag.Int("runs", 2, "suite repetitions of -selfcheck (5 derives the bounds table of the README)")
		quick     = flag.Bool("quick", false, "smoke shape: 1s warm-up, one 2s slice, one set-up, one restart")
	)
	flag.Parse()
	runtime.GOMAXPROCS(daemonProcs)

	sp := shape{
		seed: *seed, warm: 2 * time.Second, sliceLen: sliceLen, slices: max(*seconds/int(sliceLen.Seconds()), 1),
		setupReps: 2, restartReps: 2, restartWrites: 1000,
	}
	if *quick {
		sp.warm, sp.sliceLen, sp.slices = time.Second, 2*time.Second, 1
		sp.setupReps, sp.restartReps, sp.restartWrites = 1, 1, 500
	}
	wls := workloads
	if *wlName != "" {
		w := workloadByName(*wlName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wlName)
			return 2
		}
		wls = []*workload{w}
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Every exit path reaps daemons and scratch: normal return and fatal
	// errors through the defer, a panic through the same defer before it
	// propagates, SIGINT/SIGTERM through the handler.
	defer h.reap()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		h.reap()
		os.Exit(130)
	}()

	md := collectMeta(h, sp)
	if *selfcheck {
		return runSelfcheck(h, wls, sp, md, *runs)
	}
	for _, w := range wls {
		var line resultLine
		if *traceMode == 1 {
			line, err = traceWorkload(h, w, sp, md)
		} else {
			line, err = e2eWorkload(h, w, sp, md)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
		fmt.Println(string(b))
		if !line.Correct {
			code = 1
		}
	}
	return code
}

var t0 = time.Now()

// progress reports a finished phase on standard error with the time since
// the harness started, so a reader can see where a run's wall time went.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(t0).Seconds(), fmt.Sprintf(format, args...))
}

// resultLine is the last line of standard output, one per workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the ten end-to-end metrics, in print order, with their
// units and the per-slice (or per-repetition) value each one reports.
var e2eMetrics = []struct {
	name, unit string
	pick       pick
}{
	{"ops_per_s", "1/s", pickMax},
	{"read_p50_us", "us", pickMin},
	{"read_p90_us", "us", pickMin},
	{"write_p50_us", "us", pickMin},
	{"write_p90_us", "us", pickMin},
	{"daemon_cpu_us_per_op", "us", pickMin},
	{"daemon_rss_mib", "MiB", pickLast},
	{"restart_to_first_byte_ms", "ms", pickMin},
	{"restart_to_verified_ms", "ms", pickMin},
	{"setup_s", "s", pickMedian},
}

// e2eWorkload runs one workload end to end, prints its table, writes its
// JSON file and returns its result line.
func e2eWorkload(h *harness, w *workload, sp shape, md meta) (resultLine, error) {
	res, err := runE2E(h, w, sp)
	if err != nil {
		return resultLine{}, err
	}
	fmt.Printf("== %s (e2e, seed %d, %d x %s slices) ==\n", w.name, sp.seed, sp.slices, sp.sliceLen)
	line := resultLine{Correct: res.ok(), Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: map[string]metricValue{}}
	for _, m := range e2eMetrics {
		a := res.Metrics[m.name]
		fmt.Printf("%-26s %14.4f %-4s median %.4f spread [%.4f, %.4f] n=%d\n", m.name, a.Value, m.unit, a.Median, a.Q1, a.Q3, len(a.Raw))
		line.Metrics[m.name] = metricValue{Value: a.Value, Unit: m.unit}
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d shadow_mismatches=%d lost_acked_writes=%d\n",
		res.OpsAttempted, res.OpsFailed, res.ShadowMismatch, res.LostAckedWrites)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	return line, writeJSON("e2e-"+w.name+".json", map[string]any{"meta": md, "result": res, "claim": nil})
}

// writeJSON stores v under bench/out.
func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
