package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func firstOps(w *workload, seed int64, conn, nconn, n int) []op {
	st := newStream(w, seed, conn, nconn)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := firstOps(w, 7, 0, nConns, 2000), firstOps(w, 7, 0, nConns, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if c := firstOps(w, 8, 0, nConns, 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		if d := firstOps(w, 7, 1, nConns, 2000); reflect.DeepEqual(a, d) {
			t.Errorf("%s: connections 0 and 1 gave the same op stream", w.name)
		}
	}
}

func TestStreamMatchesWorkloadMix(t *testing.T) {
	for _, w := range workloads {
		var reads, forks int
		ops := firstOps(w, 3, 0, 1, 20000)
		for _, o := range ops {
			switch o.kind {
			case opRead:
				reads++
			case opFork:
				forks++
			}
			if int(o.unit) >= w.units() || int(o.off)+int(o.n) > pageSize || o.off%blockSize != 0 {
				t.Fatalf("%s: op %+v leaves its unit", w.name, o)
			}
		}
		if got := float64(reads) / float64(len(ops)); math.Abs(got-w.readFrac) > 0.02 {
			t.Errorf("%s: read share %.3f, want %.2f", w.name, got, w.readFrac)
		}
		if got := float64(forks) / float64(len(ops)); math.Abs(got-w.forkFrac) > 0.02 {
			t.Errorf("%s: fork share %.3f, want %.2f", w.name, got, w.forkFrac)
		}
	}
}

// The shadow check is exact only if no unit is ever touched by two
// connections: every generated op must stay inside its connection's
// partition, and the prefill partitions must cover every unit once.
func TestOwnershipPartitionNeverOverlaps(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < nConns; conn++ {
			for _, o := range firstOps(w, 11, conn, nConns, 5000) {
				if owner := int(o.unit) % nConns; owner != conn {
					t.Fatalf("%s: connection %d generated unit %d, owned by %d", w.name, conn, o.unit, owner)
				}
			}
		}
		seen := make([]int, w.units())
		for conn := 0; conn < nConns; conn++ {
			for u := conn; u < w.units(); u += nConns {
				seen[u]++
			}
		}
		for u, n := range seen {
			if n != 1 {
				t.Fatalf("%s: unit %d is prefilled by %d connections", w.name, u, n)
			}
		}
	}
}

// A zipf stream must still reach the whole partition's address range, or
// the scatter is not the bijection it claims to be.
func TestZipfScatterIsABijection(t *testing.T) {
	w := workloadByName("tenant_churn")
	st := newStream(w, 5, 0, nConns)
	hit := map[uint64]bool{}
	for rank := uint64(0); rank < st.owned; rank++ {
		hit[(rank*(st.stride%st.owned)+st.shift%st.owned)%st.owned] = true
	}
	if uint64(len(hit)) != st.owned {
		t.Fatalf("rank scatter maps %d ranks onto %d units", st.owned, len(hit))
	}
}

func TestPercentileAndAggregate(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}, {25, 20}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", sorted, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	// One slice a noisy neighbour ruined must move neither the median nor
	// the best slice.
	vals := []float64{100, 101, 99, 100, 40, 102, 100, 98}
	a := aggregate(vals, pickMax)
	if a.Median != 100 || a.Value != 102 {
		t.Errorf("slice median = %v, best = %v; want 100, 102", a.Median, a.Value)
	}
	if a.Q1 > a.Median || a.Q3 < a.Median || len(a.Raw) != 8 {
		t.Errorf("aggregate quartiles %v..%v around %v, raw %d", a.Q1, a.Q3, a.Median, len(a.Raw))
	}
	for _, c := range []struct {
		p    pick
		want float64
	}{{pickMin, 40}, {pickLast, 98}, {pickMedian, 100}} {
		if got := aggregate(vals, c.p).Value; got != c.want {
			t.Errorf("aggregate pick %d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := aggregate(nil, pickMin).Value; got != 0 {
		t.Errorf("aggregate of nothing = %v, want 0", got)
	}
	if got := usOf([]int64{3000, 1000, 2000}); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("usOf = %v, want sorted microseconds", got)
	}
}

func TestShadowCatchesAFlippedByte(t *testing.T) {
	sh := newShadow(4)
	o := op{kind: opWrite, unit: 2, off: 128, n: 256}
	data := make([]byte, o.n)
	fillPayload(data, payloadKey(1, 0), 42)
	sh.apply(o, data)
	if !sh.check(o, data) {
		t.Fatal("shadow rejects the bytes it was given")
	}
	bad := append([]byte(nil), data...)
	bad[200] ^= 0x01
	if sh.check(o, bad) {
		t.Fatal("shadow accepts a reply with one flipped bit")
	}
	if sh.check(o, data[:len(data)-1]) {
		t.Fatal("shadow accepts a short reply")
	}
	// A neighbouring span is untouched by the write.
	if !sh.check(op{unit: 2, off: 0, n: 128}, make([]byte, 128)) {
		t.Fatal("write leaked outside its span")
	}
}

func TestPayloadDependsOnKeyAndSeq(t *testing.T) {
	a, b, c := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	fillPayload(a, payloadKey(1, 0), 5)
	fillPayload(b, payloadKey(1, 0), 6)
	fillPayload(c, payloadKey(1, 1), 5)
	if string(a) == string(b) || string(a) == string(c) {
		t.Fatal("payloads repeat across seq or connection")
	}
	fillPayload(b, payloadKey(1, 0), 5)
	if string(a) != string(b) {
		t.Fatal("payload is not a function of (key, seq)")
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	stat := "4242 (sec memd) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 715 289 0 0 20 0 7 0 100 200 300"
	u, s, err := parseProcStat(stat)
	if err != nil || u != 715 || s != 289 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 715, 289", u, s, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 x 12"} {
		if _, _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
	status := "Name:\tsecmemd\nVmPeak:\t 1300000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   73728 kB\nThreads:\t7\n"
	if kib, err := parseStatusKiB(status, "VmHWM"); err != nil || kib != 81920 {
		t.Fatalf("parseStatusKiB(VmHWM) = %d, %v; want 81920", kib, err)
	}
	if kib, err := parseStatusKiB(status, "VmRSS"); err != nil || kib != 73728 {
		t.Fatalf("parseStatusKiB(VmRSS) = %d, %v; want 73728", kib, err)
	}
	if _, err := parseStatusKiB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("parseStatusKiB accepted a status without the line")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("latency 100→110 is worse by %v, want 0.10", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("throughput 100→90 is worse by %v, want 0.10", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100→90 counts as worse (%v)", got)
	}
}

func TestRungParents(t *testing.T) {
	w := workloadByName("tenant_churn")
	want := []string{"core", "shard", "persist", "tenant", "server", "daemon"}
	if got := rungNames(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("rungs = %v, want %v", got, want)
	}
	if p := parentRung(w, "persist"); p != "tenant" {
		t.Errorf("parent of persist = %q, want tenant", p)
	}
	if p := parentRung(workloadByName("mem_point"), "shard"); p != "server" {
		t.Errorf("parent of shard on mem_point = %q, want server", p)
	}
}

// BENCHMARK.json is the contract the driver reads; the harness's own
// tables are what it prints. They must name the same things.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, harness has %v", names, want)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, harness has %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s (%s), harness has %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %s: bound %v outside (0, 0.25]", i, got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, harness has %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, harness has %+v", i, got, m)
		}
	}
}

// TestQuickSmoke runs all four workloads end to end through the real
// command in its -quick shape. It spawns daemons and takes tens of
// seconds, so it runs only when asked: BENCH_SMOKE=1 go test ./bench
func TestQuickSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the end-to-end smoke")
	}
	cmd := exec.Command("go", "run", "./bench", "-quick")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./bench -quick: %v\n%s", err, out)
	}
	var lines []resultLine
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "{") {
			var rl resultLine
			if err := json.Unmarshal([]byte(l), &rl); err != nil {
				t.Fatalf("result line %q: %v", l, err)
			}
			lines = append(lines, rl)
		}
	}
	if len(lines) != len(workloads) {
		t.Fatalf("got %d result lines, want %d\n%s", len(lines), len(workloads), out)
	}
	for i, rl := range lines {
		if !rl.Correct || rl.Failed != 0 || rl.Attempted == 0 || len(rl.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %+v", workloads[i].name, rl)
		}
	}
}
