package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", Labels{"kind": "a"})
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "Depth.", nil)
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Errorf("sum = %v, want 55.55", h.Sum())
	}
}

func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", Labels{"k": "1"})
	b := r.Counter("x_total", "X.", Labels{"k": "1"})
	if a != b {
		t.Error("same name+labels must return the same series")
	}
	c := r.Counter("x_total", "X.", Labels{"k": "2"})
	if a == c {
		t.Error("distinct labels must return distinct series")
	}
	// A histogram family's bounds are fixed at creation: a later series
	// asking for others gets the family's.
	r.Histogram("y_seconds", "Y.", []float64{1, 2}, Labels{"k": "1"})
	if h := r.Histogram("y_seconds", "Y.", []float64{5}, Labels{"k": "2"}); !slices.Equal(h.bounds, []float64{1, 2}) {
		t.Errorf("second series bounds = %v, want the family's [1 2]", h.bounds)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "M.", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering m as gauge after counter should panic")
		}
	}()
	r.Gauge("m", "M.", nil)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("delprop_solves_total", "Solves.", Labels{"solver": "greedy"}).Add(3)
	r.Gauge("delprop_draining", "Draining.", nil).Set(1)
	h := r.Histogram("delprop_solve_duration_seconds", "Latency.", []float64{0.1, 1}, Labels{"solver": "greedy"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP delprop_solves_total Solves.",
		"# TYPE delprop_solves_total counter",
		`delprop_solves_total{solver="greedy"} 3`,
		"# TYPE delprop_draining gauge",
		"delprop_draining 1",
		"# TYPE delprop_solve_duration_seconds histogram",
		`delprop_solve_duration_seconds_bucket{solver="greedy",le="0.1"} 1`,
		`delprop_solve_duration_seconds_bucket{solver="greedy",le="1"} 2`,
		`delprop_solve_duration_seconds_bucket{solver="greedy",le="+Inf"} 3`,
		`delprop_solve_duration_seconds_sum{solver="greedy"} 7.55`,
		`delprop_solve_duration_seconds_count{solver="greedy"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramRenderEmpty checks an observed-nothing histogram still
// renders a full, all-zero bucket ladder (scrapers treat a missing series
// and a zero series very differently).
func TestHistogramRenderEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_seconds", "Empty.", []float64{1, 2}, nil)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`empty_seconds_bucket{le="1"} 0`,
		`empty_seconds_bucket{le="2"} 0`,
		`empty_seconds_bucket{le="+Inf"} 0`,
		"empty_seconds_sum 0",
		"empty_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryObservation pins the le semantics: a value exactly
// on a bucket bound belongs to that bucket (le is ≤), and a value above
// the last bound lands only in +Inf.
func TestHistogramBoundaryObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "Edge.", []float64{1, 2}, nil)
	h.Observe(1) // exactly on the first bound
	h.Observe(2) // exactly on the last bound
	h.Observe(3) // above every bound: +Inf only
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`edge_seconds_bucket{le="1"} 1`,
		`edge_seconds_bucket{le="2"} 2`,
		`edge_seconds_bucket{le="+Inf"} 3`,
		"edge_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramInfCumulative checks the +Inf bucket always equals the
// count, whatever mix of in-range and overflow observations arrived —
// the invariant Prometheus rate() math relies on.
func TestHistogramInfCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inf_seconds", "Inf.", []float64{0.5}, nil)
	for _, v := range []float64{0.1, 0.5, 0.9, 100, 0.2} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if want := `inf_seconds_bucket{le="+Inf"} 5`; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
	if want := "inf_seconds_count 5"; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "", Labels{"q": "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `weird_total{q="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("output missing %q:\n%s", want, b.String())
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "", nil).Inc()
	r.Gauge("b", "", nil).Set(1)
	r.Histogram("c", "", nil, nil).Observe(1)
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry rendered %q", b.String())
	}
}

// TestConcurrentUse hammers one registry from many goroutines — lookup,
// increment and render all racing — and relies on -race in CI to catch
// unsynchronized access.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			solver := []string{"greedy", "red-blue"}[i%2]
			for j := 0; j < 1000; j++ {
				r.Counter("delprop_solver_nodes_expanded_total", "Nodes.", Labels{"solver": solver}).Add(3)
				r.Histogram("delprop_solve_duration_seconds", "Latency.", nil, Labels{"solver": solver}).Observe(0.001)
				r.Gauge("delprop_http_in_flight_requests", "In flight.", nil).Add(1)
				r.Gauge("delprop_http_in_flight_requests", "In flight.", nil).Add(-1)
			}
		}(i)
	}
	// Render concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var b strings.Builder
			r.WritePrometheus(&b)
		}
	}()
	// Tick a sampler and read its windows concurrently too: the sample
	// rings live on the registry's series.
	s := NewSampler(r, SamplerConfig{Interval: time.Millisecond, MaxWindow: 10 * time.Millisecond})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			s.Tick()
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			s.SeriesSnapshot([]time.Duration{time.Millisecond, 10 * time.Millisecond}, "")
			s.CounterWindow("delprop_solver_nodes_expanded_total", nil, 10*time.Millisecond)
			s.Quantile("delprop_solve_duration_seconds", map[string][]string{"solver": {"greedy"}}, 10*time.Millisecond, 0.9)
			s.GaugeTimeAt("delprop_http_in_flight_requests", nil, 10*time.Millisecond, 0)
			s.LabelValues("delprop_solve_duration_seconds", "solver")
		}
	}()
	wg.Wait()
	total := r.Counter("delprop_solver_nodes_expanded_total", "Nodes.", Labels{"solver": "greedy"}).Value() +
		r.Counter("delprop_solver_nodes_expanded_total", "Nodes.", Labels{"solver": "red-blue"}).Value()
	if want := int64(8 * 1000 * 3); total != want {
		t.Errorf("total nodes = %d, want %d", total, want)
	}
	if v := r.Gauge("delprop_http_in_flight_requests", "In flight.", nil).Value(); v != 0 {
		t.Errorf("in-flight gauge = %v, want 0", v)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// Empty histogram: no estimate.
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// 10 observations uniformly in (1, 2]: every quantile interpolates
	// inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("q50 = %v, want inside (1, 2]", got)
	}
	if lo, hi := h.Quantile(0.1), h.Quantile(0.9); lo > hi {
		t.Errorf("quantiles not monotone: q10=%v > q90=%v", lo, hi)
	}
	// Skewed tail: 9 fast, 1 slow. q95 must land in the slow bucket.
	h2 := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 9; i++ {
		h2.Observe(0.5)
	}
	h2.Observe(7)
	if got := h2.Quantile(0.95); got <= 4 || got > 8 {
		t.Errorf("q95 = %v, want inside (4, 8]", got)
	}
	if got := h2.Quantile(0.5); got > 1 {
		t.Errorf("q50 = %v, want <= 1", got)
	}
}

// TestHistogramQuantileEdgeCases pins the boundary contract of Quantile:
// empty histograms, the extreme quantiles q=0 and q=1, a single-bucket
// layout, and a histogram whose entire mass sits in the +Inf overflow
// bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := newHistogram([]float64{1, 2, 4})
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
			}
		}
	})
	t.Run("q0 and q1", func(t *testing.T) {
		h := newHistogram([]float64{1, 2, 4})
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(3)
		// q=0 interpolates at rank 0: the lower edge of the first populated
		// bucket (the implicit 0 origin).
		if got := h.Quantile(0); got != 0 {
			t.Errorf("Quantile(0) = %v, want 0 (lower edge of first bucket)", got)
		}
		// q=1 is the full rank: the upper bound of the last populated bucket.
		if got := h.Quantile(1); got != 4 {
			t.Errorf("Quantile(1) = %v, want 4", got)
		}
		if lo, hi := h.Quantile(0), h.Quantile(1); lo > hi {
			t.Errorf("extremes not ordered: q0=%v > q1=%v", lo, hi)
		}
	})
	t.Run("single bucket", func(t *testing.T) {
		h := newHistogram([]float64{10})
		for i := 0; i < 4; i++ {
			h.Observe(5)
		}
		// Every quantile interpolates inside [0, 10]; the median of a
		// uniform rank split lands at the midpoint.
		if got := h.Quantile(0.5); got != 5 {
			t.Errorf("single-bucket Quantile(0.5) = %v, want 5", got)
		}
		if got := h.Quantile(1); got != 10 {
			t.Errorf("single-bucket Quantile(1) = %v, want 10", got)
		}
		if got := h.Quantile(0.25); got < 0 || got > 10 {
			t.Errorf("single-bucket Quantile(0.25) = %v, outside [0, 10]", got)
		}
	})
	t.Run("all mass in +Inf", func(t *testing.T) {
		h := newHistogram([]float64{1, 2, 4})
		h.Observe(100)
		h.Observe(200)
		// No finite bucket holds any rank: every quantile reports the
		// largest finite bound (there is no upper edge to interpolate
		// toward).
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 4 {
				t.Errorf("overflow-only Quantile(%v) = %v, want 4", q, got)
			}
		}
	})
}

func TestHistogramQuantileOverflowAndClamp(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100) // +Inf overflow bucket
	// No finite bucket holds the rank: report the largest finite bound.
	if got := h.Quantile(0.9); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
	// Out-of-range q clamps instead of panicking.
	if got := h.Quantile(1.5); got != 2 {
		t.Errorf("clamped q = %v", got)
	}
	if got := h.Quantile(-1); got != 2 {
		// rank 0 with only the overflow bucket populated still reports the
		// largest finite bound.
		t.Errorf("negative q = %v", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("NaN q = %v", got)
	}
	// Nil receiver is a no-op sink like the rest of the package.
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil quantile = %v", got)
	}
}
