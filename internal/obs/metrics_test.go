package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("secmemd_test_ops_total", "Ops.", "op", "read")
	c2 := r.Counter("secmemd_test_ops_total", "Ops.", "op", "write")
	g := r.Gauge("secmemd_test_depth", "Depth.")
	c.Add(3)
	c2.Inc()
	g.Set(-7)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP secmemd_test_ops_total Ops.\n",
		"# TYPE secmemd_test_ops_total counter\n",
		`secmemd_test_ops_total{op="read"} 3` + "\n",
		`secmemd_test_ops_total{op="write"} 1` + "\n",
		"# TYPE secmemd_test_depth gauge\n",
		"secmemd_test_depth -7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear once per family, not per series.
	if n := strings.Count(out, "# TYPE secmemd_test_ops_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("secmemd_test_latency_us", "Latency.", []uint64{1, 2, 4}, "op", "read")
	for _, v := range []uint64{1, 2, 2, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 108 {
		t.Fatalf("Sum = %d, want 108", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE secmemd_test_latency_us histogram\n",
		`secmemd_test_latency_us_bucket{op="read",le="1"} 1` + "\n",
		`secmemd_test_latency_us_bucket{op="read",le="2"} 3` + "\n",
		`secmemd_test_latency_us_bucket{op="read",le="4"} 4` + "\n",
		`secmemd_test_latency_us_bucket{op="read",le="+Inf"} 5` + "\n",
		`secmemd_test_latency_us_sum{op="read"} 108` + "\n",
		`secmemd_test_latency_us_count{op="read"} 5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if probs := Lint(out, "secmemd_"); len(probs) != 0 {
		t.Errorf("lint rejects own exposition: %v", probs)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("secmemd_dup_total", "D.", "a", "1")
	mustPanic(t, "duplicate series", func() { r.Counter("secmemd_dup_total", "D.", "a", "1") })
	mustPanic(t, "different type", func() { r.Gauge("secmemd_dup_total", "D.") })
	mustPanic(t, "different help", func() { r.Counter("secmemd_dup_total", "other help") })
	mustPanic(t, "odd labels", func() { r.Counter("secmemd_odd_total", "O.", "k") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestGaugeFuncEvaluatedAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("secmemd_live", "Live.", func() float64 { return v })
	v = 2.5
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "secmemd_live 2.5\n") {
		t.Errorf("gauge func not evaluated at scrape:\n%s", b.String())
	}
}

// TestRegistryConcurrency hammers registration, recording and exposition
// from many goroutines; run under -race this validates the locking
// story (registration locked, recording lock-free).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("secmemd_conc_total", "C.")
	h := r.Histogram("secmemd_conc_us", "H.", LatencyBucketsUS())
	g := r.Gauge("secmemd_conc_depth", "G.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(uint64(i))
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	// Concurrent scrapes while recording is in flight.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 16000 {
		t.Errorf("counter = %d, want 16000", got)
	}
	if got := h.Count(); got != 16000 {
		t.Errorf("histogram count = %d, want 16000", got)
	}
}
