// Package obs is the service's observability subsystem: a zero-allocation
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with Prometheus text exposition), wire-level request tracing
// into lock-free per-shard ring buffers, and the HTTP handlers that dump
// both (/metrics, /tracez).
//
// The design constraint is the hot path: recording a counter, histogram
// sample or trace span on the request path performs zero heap allocations
// and takes a handful of atomic operations. Everything that allocates —
// registration, exposition, ring snapshots — happens at startup or scrape
// time. The package depends only on the standard library so every service
// layer (shard, persist, server, cmd) can import it without cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters are normally minted by Registry.Counter so they appear in
// the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// edges in the metric's unit (this repository standardizes on
// microseconds, suffix _us); one implicit +Inf bucket is appended.
// Observe is lock-free: one atomic add into the bucket and one into the
// running sum.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// LatencyBucketsUS is the repository's shared latency bucket geometry:
// power-of-two microsecond edges from 1µs to ~4.2s. Every daemon latency
// histogram uses the same edges so distributions stay mechanically
// comparable.
func LatencyBucketsUS() []uint64 {
	b := make([]uint64, 23)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// SizeBucketsBytes buckets byte counts: 64B to 16MiB, powers of four.
func SizeBucketsBytes() []uint64 {
	b := make([]uint64, 10)
	v := uint64(64)
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}

// metricKind is a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// sample is one registered series: a value source plus its rendered
// label set.
type sample struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family groups samples of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []*sample
	seen    map[string]bool // label sets, duplicate registration guard
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is synchronized and panics on duplicate
// series or on re-registering a name with a different type or help —
// both are programmer errors the metrics lint would flag anyway.
// Recording through the returned handles is lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// renderLabels formats key/value pairs in the given order.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// register adds a sample under name, creating the family if needed.
func (r *Registry) register(name, help string, kind metricKind, s *sample, kv []string) {
	s.labels = renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, seen: map[string]bool{}}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %s re-registered with different help", name))
	}
	if f.seen[s.labels] {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
	}
	f.seen[s.labels] = true
	f.samples = append(f.samples, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &sample{counter: c}, kv)
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &sample{gauge: g}, kv)
	return g
}

// GaugeFunc registers a gauge series whose value is computed at scrape
// time (queue depths, shard states — anything already maintained
// elsewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	r.register(name, help, kindGauge, &sample{fn: fn}, kv)
}

// CounterFunc registers a counter series read from fn at scrape time (a
// monotone value maintained outside the registry).
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	r.register(name, help, kindCounter, &sample{fn: fn}, kv)
}

// Histogram registers and returns a histogram series with the given
// bucket bounds (see LatencyBucketsUS).
func (r *Registry) Histogram(name, help string, bounds []uint64, kv ...string) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, kindHistogram, &sample{hist: h}, kv)
	return h
}

// fmtFloat renders a value without the exponent noise %g gives integers.
func fmtFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in registration order: HELP and
// TYPE once, then each series. Histograms expand to cumulative _bucket
// series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			var err error
			switch {
			case s.hist != nil:
				err = writeHistogram(w, f.name, s)
			case s.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Load())
			case s.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Load())
			case s.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.fn()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series in Prometheus shape.
func writeHistogram(w io.Writer, name string, s *sample) error {
	h := s.hist
	// Splice the le label into the (possibly empty) label set.
	leLabel := func(le string) string {
		if s.labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(s.labels, "}"), le)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabel(fmt.Sprintf("%d", b)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabel("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, s.labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
	return err
}

// Families returns the registered family names, sorted (tests, lint).
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
