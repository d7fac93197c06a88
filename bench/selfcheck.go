package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck is the noise protocol as code: run the e2e suite `runs`
// times on the one binary (a new seed each time, as the driver does),
// print every (workload, metric) row with its values, median and largest
// deviation from the median, and fail if any later run is worse than the
// first by more than the metric's bound in BENCHMARK.json — the same
// comparison that later gates a change, here with nothing changed.
func runSelfcheck(h *harness, wls []*workload, sp shape, md meta, runs int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 1
	}
	vals := map[string][]float64{} // "workload/metric" → one value per run
	for r := 0; r < runs; r++ {
		rsp := sp
		rsp.seed = sp.seed + int64(r)
		for _, w := range wls {
			res, err := runE2E(h, w, rsp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck run %d: %s: %v\n", r+1, w.name, err)
				return 1
			}
			if !res.ok() {
				fmt.Fprintf(os.Stderr, "bench: selfcheck run %d: %s: ops_failed=%d shadow_mismatches=%d lost_acked_writes=%d\n",
					r+1, w.name, res.OpsFailed, res.ShadowMismatch, res.LostAckedWrites)
				return 1
			}
			for name, a := range res.Metrics {
				vals[w.name+"/"+name] = append(vals[w.name+"/"+name], a.Value)
			}
			progress("selfcheck run %d/%d: %s done", r+1, runs, w.name)
		}
	}

	offenders := 0
	fmt.Printf("%-14s %-26s %-5s %12s %8s %6s  %s\n", "workload", "metric", "unit", "median", "max_dev", "bound", "runs")
	for _, w := range wls {
		for _, m := range bf.EndToEnd {
			v := vals[w.name+"/"+m.Name]
			if len(v) == 0 {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: BENCHMARK.json names %q, which the harness does not measure\n", m.Name)
				return 1
			}
			med := median(v)
			var maxDev, worst float64
			for i, x := range v {
				maxDev = math.Max(maxDev, math.Abs(x-med)/med)
				if i > 0 {
					worst = math.Max(worst, worseBy(v[0], x, m.Better))
				}
			}
			flag := ""
			if worst > m.Bound {
				flag = fmt.Sprintf("  <-- a later run is %.1f%% worse than the first", worst*100)
				offenders++
			}
			fmt.Printf("%-14s %-26s %-5s %12.4f %7.1f%% %5.0f%%  %.4g%s\n", w.name, m.Name, m.Unit, med, maxDev*100, m.Bound*100, v, flag)
		}
	}
	if err := writeJSON("selfcheck.json", map[string]any{"meta": md, "runs": runs, "values": vals, "offenders": offenders, "claim": nil}); err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 1
	}
	if offenders > 0 {
		fmt.Printf("selfcheck: FAIL, %d (workload, metric) pairs moved by more than their bound on unchanged code\n", offenders)
		return 1
	}
	fmt.Println("selfcheck: ok, every metric on every workload stayed within its bound")
	return 0
}
