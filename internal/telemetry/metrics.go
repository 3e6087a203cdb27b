// Package telemetry is the stdlib-only observability layer shared by the
// solver stack: a metrics registry (counters, gauges, histograms with
// atomic hot paths) exposed in the Prometheus text format, and a tracer
// recording per-solve spans into a ring buffer of recent traces (see
// trace.go). The server mounts both under GET /metrics and
// GET /debug/traces; docs/OBSERVABILITY.md documents the metric names and
// schemas.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension values to a metric instance ("solver",
// "path", ...). Instances with distinct label values are independent
// series of the same family.
type Labels map[string]string

// key renders the labels in canonical sorted order, used both as the map
// key inside the registry and as the rendered {a="b"} clause.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote and newline exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing metric. Add is a single atomic
// operation, safe on hot paths.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (CAS loop; contention-safe).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Observe touches one bucket
// counter, the count, and the sum — all atomics, no locks.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is the default latency bucket layout, in seconds, spanning
// sub-millisecond solves to the 2-minute server deadline cap.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds}
	h.buckets = make([]atomic.Int64, len(bounds))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative in the exposition, not in storage: each slot
	// counts values in (bounds[i-1], bounds[i]]; render sums them up.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly inside the bucket that holds the target rank —
// the same estimate Prometheus' histogram_quantile computes. It returns 0
// when the histogram is empty, and the largest finite bound when the rank
// falls in the +Inf overflow bucket (there is no upper edge to interpolate
// toward). The server derives Retry-After hints from live latency this
// way. Concurrent Observes may skew the estimate by a sample; that is fine
// for a hint.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	buckets := make([]int64, len(h.bounds))
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return bucketQuantile(h.bounds, buckets, h.count.Load(), q)
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind is a family's type, as the # TYPE line and /debug/series
// name it.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name with its help text and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64          // histograms only
	byKey  map[string]*series // canonical label key -> series
	series []*series          // registration order
}

// series is one (family, labels) instance: its live metric and the sample
// history a Sampler keeps of it (series.go).
type series struct {
	key    string // canonical label rendering ("" when unlabeled)
	labels Labels // copy of the registering labels; nil when unlabeled
	metric any    // *Counter, *Gauge or *Histogram
	// samples holds the most recent tick samples, oldest first; empty
	// until the first tick, which sizes it.
	samples Ring[tickSample]
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Lookup takes a read lock; the returned handles are
// lock-free, so callers on hot paths should cache them. A nil *Registry
// is a valid no-op sink.
//
// mu guards the families, their series lists and every series' sample
// ring: Sampler.Tick pushes under the write lock, windowed reads reduce
// under the read lock.
//
//delprop:nilsafe
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family //delprop:guardedby mu
	order    []*family          //delprop:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the named family and the series for labels; mk
// builds a new series' metric from the family's bounds.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels Labels, mk func(bounds []float64) any) any {
	lk := labels.key()
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if sr, ok := f.byKey[lk]; ok {
			r.mu.RUnlock()
			return sr.metric
		}
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered twice with different types", name))
	}
	sr, ok := f.byKey[lk]
	if !ok {
		sr = &series{key: lk, metric: mk(f.bounds)}
		if len(labels) > 0 {
			sr.labels = make(Labels, len(labels))
			for k, v := range labels {
				sr.labels[k] = v
			}
		}
		f.byKey[lk] = sr
		f.series = append(f.series, sr)
	}
	return sr.metric
}

// Counter returns the counter series for name+labels, creating it (and
// its family, with help text) on first use. nil-safe: a nil registry
// returns a detached counter, so instrumented code needs no guards.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, help, kindCounter, nil, labels, func([]float64) any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name+labels (nil-safe, see Counter).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, help, kindGauge, nil, labels, func([]float64) any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for name+labels. bounds apply on
// family creation only (nil means DefBuckets); later calls reuse the
// family's layout. nil-safe, see Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, bounds, labels, func(b []float64) any { return newHistogram(b) }).(*Histogram)
}

// formatValue renders a float without the exponent noise %v would add for
// integers stored as floats.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in registration order using the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.order {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, sr := range f.series {
			lk := sr.key
			switch s := sr.metric.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, braced(lk), s.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, braced(lk), formatValue(s.Value()))
			case *Histogram:
				cum := int64(0)
				for i, bound := range s.bounds {
					cum += s.buckets[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedWith(lk, "le", formatValue(bound)), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedWith(lk, "le", "+Inf"), s.Count())
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(lk), formatValue(s.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(lk), s.Count())
			}
		}
	}
}

// braced wraps a non-empty label key in {}.
func braced(lk string) string {
	if lk == "" {
		return ""
	}
	return "{" + lk + "}"
}

// bracedWith appends one extra label (le for histogram buckets).
func bracedWith(lk, name, value string) string {
	extra := fmt.Sprintf("%s=%q", name, value)
	if lk == "" {
		return "{" + extra + "}"
	}
	return "{" + lk + "," + extra + "}"
}
