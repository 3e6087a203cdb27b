package telemetry

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// fakeClock drives a Sampler deterministically: tests advance it by hand
// and every Tick / windowed read sees the frozen time.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) Config(s SamplerConfig) SamplerConfig {
	s.Clock = c.Now
	return s
}

func newTestSampler(reg *Registry, interval, window time.Duration) (*Sampler, *fakeClock) {
	clk := newFakeClock()
	s := NewSampler(reg, clk.Config(SamplerConfig{Interval: interval, MaxWindow: window}))
	return s, clk
}

// TestCounterWindowDeterministic: with an injected clock ticking 1s apart,
// windowed deltas and rates come out exactly.
func TestCounterWindowDeterministic(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "test", nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)

	if _, ok := s.CounterWindow("jobs_total", nil, 10*time.Second); ok {
		t.Fatal("window reported ok before any tick")
	}
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		c.Add(5)
		s.Tick()
	}
	if got := s.Ticks(); got != 10 {
		t.Fatalf("Ticks() = %d, want 10", got)
	}

	// 5s window: 5 in-window samples + 1 baseline → 5 pairwise deltas of 5.
	cw, ok := s.CounterWindow("jobs_total", nil, 5*time.Second)
	if !ok {
		t.Fatal("5s window not ok")
	}
	if cw.Delta != 25 {
		t.Fatalf("5s delta = %v, want 25", cw.Delta)
	}
	if cw.Rate != 5 {
		t.Fatalf("5s rate = %v, want 5", cw.Rate)
	}
	if cw.Samples != 6 {
		t.Fatalf("5s samples = %d, want 6", cw.Samples)
	}

	// A window wider than the history clips to what the ring holds: all 10
	// samples, 9 deltas of 5 over 9 seconds.
	cw, ok = s.CounterWindow("jobs_total", nil, 30*time.Second)
	if !ok {
		t.Fatal("30s window not ok")
	}
	if cw.Delta != 45 || cw.Rate != 5 {
		t.Fatalf("30s window = %+v, want delta 45 rate 5", cw)
	}

	if _, ok := s.CounterWindow("no_such_total", nil, 5*time.Second); ok {
		t.Fatal("unknown family reported ok")
	}
}

// TestRingWraparound: ticking far past the ring capacity keeps only the
// newest MaxWindow worth of samples and the window math stays correct.
func TestRingWraparound(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "test", nil)
	s, clk := newTestSampler(reg, time.Second, 5*time.Second)
	capacity := s.capacity() // 5/1 + 2 = 7

	for i := 0; i < 20; i++ {
		clk.Advance(time.Second)
		c.Inc()
		s.Tick()
	}
	reg.mu.RLock()
	n := reg.families["jobs_total"].series[0].samples.Len()
	reg.mu.RUnlock()
	if n != capacity {
		t.Fatalf("ring holds %d samples after 20 ticks, want capacity %d", n, capacity)
	}

	cw, ok := s.CounterWindow("jobs_total", nil, 5*time.Second)
	if !ok {
		t.Fatal("window not ok")
	}
	if cw.Delta != 5 || cw.Rate != 1 {
		t.Fatalf("post-wrap 5s window = %+v, want delta 5 rate 1", cw)
	}
	// Asking beyond retention clips to what survived the wrap.
	cw, _ = s.CounterWindow("jobs_total", nil, time.Hour)
	if cw.Delta != float64(capacity-1) {
		t.Fatalf("clipped window delta = %v, want %d", cw.Delta, capacity-1)
	}
}

// TestGaugeWindowAggregates: last/min/max/avg over the window, and the
// window cut excluding older samples.
func TestGaugeWindowAggregates(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "test", nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	for _, v := range []float64{1, 3, 2} {
		clk.Advance(time.Second)
		g.Set(v)
		s.Tick()
	}

	gw, ok := s.GaugeWindow("depth", nil, 10*time.Second)
	if !ok {
		t.Fatal("10s window not ok")
	}
	if gw.Last != 2 || gw.Min != 1 || gw.Max != 3 || gw.Avg != 2 || gw.Samples != 3 {
		t.Fatalf("10s gauge window = %+v, want last 2 min 1 max 3 avg 2 samples 3", gw)
	}

	// 1.5s window only admits the last two samples (3 then 2).
	gw, ok = s.GaugeWindow("depth", nil, 1500*time.Millisecond)
	if !ok {
		t.Fatal("1.5s window not ok")
	}
	if gw.Last != 2 || gw.Min != 2 || gw.Max != 3 || gw.Avg != 2.5 || gw.Samples != 2 {
		t.Fatalf("1.5s gauge window = %+v, want last 2 min 2 max 3 avg 2.5 samples 2", gw)
	}

	if _, ok := s.GaugeWindow("jobs_total", nil, time.Minute); ok {
		t.Fatal("gauge read of a missing family reported ok")
	}
}

// TestGaugeTimeAt: dwell time at a target value sums the spans whose
// starting sample equals the target.
func TestGaugeTimeAt(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("breaker_state", "test", nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	// Values per tick: 0, 2, 2, 2, 0, 0 — the gauge sits at 2 from tick 2's
	// sample until tick 5's, i.e. 3 one-second spans.
	for _, v := range []float64{0, 2, 2, 2, 0, 0} {
		clk.Advance(time.Second)
		g.Set(v)
		s.Tick()
	}
	d, ok := s.GaugeTimeAt("breaker_state", nil, 30*time.Second, 2)
	if !ok {
		t.Fatal("GaugeTimeAt not ok")
	}
	if d != 3*time.Second {
		t.Fatalf("time at 2 = %v, want 3s", d)
	}
	d, _ = s.GaugeTimeAt("breaker_state", nil, 30*time.Second, 7)
	if d != 0 {
		t.Fatalf("time at never-seen value = %v, want 0", d)
	}
}

// TestHistogramWindowQuantiles: old observations age out of the window,
// so the windowed quantiles track the recent regime while the lifetime
// histogram still remembers the old one.
func TestHistogramWindowQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "test", nil, nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)

	clk.Advance(time.Second)
	s.Tick() // baseline
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
	}
	clk.Advance(time.Second)
	s.Tick()
	for i := 0; i < 10; i++ {
		h.Observe(5.0)
	}
	clk.Advance(time.Second)
	s.Tick()

	// 1s window: only the last inter-tick span, holding the ten 5.0s.
	hw, ok := s.HistogramWindow("latency_seconds", nil, time.Second)
	if !ok {
		t.Fatal("1s window not ok")
	}
	if hw.Count != 10 {
		t.Fatalf("1s window count = %d, want 10", hw.Count)
	}
	if math.Abs(hw.Sum-50) > 1e-9 {
		t.Fatalf("1s window sum = %v, want 50", hw.Sum)
	}
	if hw.Rate != 10 {
		t.Fatalf("1s window rate = %v, want 10", hw.Rate)
	}
	if hw.P95 <= 2.5 || hw.P95 > 5 {
		t.Fatalf("1s window p95 = %v, want in (2.5, 5]", hw.P95)
	}

	// 10s window sees both regimes: 110 observations, median back near the
	// fast bucket.
	hw, ok = s.HistogramWindow("latency_seconds", nil, 10*time.Second)
	if !ok {
		t.Fatal("10s window not ok")
	}
	if hw.Count != 110 {
		t.Fatalf("10s window count = %d, want 110", hw.Count)
	}
	if hw.P50 > 0.01 {
		t.Fatalf("10s window p50 = %v, want <= 0.01", hw.P50)
	}

	// Quantile agrees with the window reduction it wraps.
	if q, ok := s.Quantile("latency_seconds", nil, time.Second, 0.95); !ok || q != hw2p95(s) {
		t.Fatalf("Quantile = %v ok=%v, want %v", q, ok, hw2p95(s))
	}
	if _, ok := s.Quantile("no_such", nil, time.Second, 0.95); ok {
		t.Fatal("Quantile of a missing family reported ok")
	}
}

func hw2p95(s *Sampler) float64 {
	hw, _ := s.HistogramWindow("latency_seconds", nil, time.Second)
	return hw.P95
}

// TestBucketQuantileEdges: empty windows, out-of-range q, and ranks
// landing in the +Inf overflow bucket.
func TestBucketQuantileEdges(t *testing.T) {
	bounds := []float64{1, 2, 4}
	if got := bucketQuantile(bounds, []int64{0, 0, 0}, 0, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// All mass above the largest bound: report the largest finite bound.
	if got := bucketQuantile(bounds, []int64{0, 0, 0}, 10, 0.5); got != 4 {
		t.Fatalf("overflow quantile = %v, want 4", got)
	}
	// 10 observations in (1,2]: q=1 pins to the bucket's upper bound.
	if got := bucketQuantile(bounds, []int64{0, 10, 0}, 10, 1); got != 2 {
		t.Fatalf("q=1 quantile = %v, want 2", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 10, 0}, 10, -3); got != 1 {
		t.Fatalf("q<0 quantile = %v, want 1 (clamped to the bucket floor)", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 10, 0}, 10, math.NaN()); got != 0 {
		t.Fatalf("NaN quantile = %v, want 0", got)
	}
}

// TestLabelValuesAndMatch: label-value enumeration (the watchdog's By
// expansion) and label matching across series.
func TestLabelValuesAndMatch(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("solves_total", "test", Labels{"solver": "greedy", "outcome": "ok"}).Add(3)
	reg.Counter("solves_total", "test", Labels{"solver": "red-blue", "outcome": "error"}).Add(2)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	clk.Advance(time.Second)
	s.Tick()
	clk.Advance(time.Second)
	s.Tick()

	vals := s.LabelValues("solves_total", "solver")
	if len(vals) != 2 || vals[0] != "greedy" || vals[1] != "red-blue" {
		t.Fatalf("LabelValues = %v, want [greedy red-blue]", vals)
	}
	if got := s.LabelValues("solves_total", "tenant"); len(got) != 0 {
		t.Fatalf("LabelValues of an absent label = %v, want empty", got)
	}

	// Match restricts the reduction to one series.
	cw, ok := s.CounterWindow("solves_total", map[string][]string{"solver": {"greedy"}}, time.Minute)
	if !ok || cw.Delta != 0 {
		t.Fatalf("matched window = %+v ok=%v, want delta 0 (no increments after first tick)", cw, ok)
	}
	reg.Counter("solves_total", "test", Labels{"solver": "greedy", "outcome": "ok"}).Add(4)
	clk.Advance(time.Second)
	s.Tick()
	cw, _ = s.CounterWindow("solves_total", map[string][]string{"solver": {"greedy"}}, time.Minute)
	if cw.Delta != 4 {
		t.Fatalf("greedy delta = %v, want 4", cw.Delta)
	}
	cw, _ = s.CounterWindow("solves_total", map[string][]string{"outcome": {"ok", "error"}}, time.Minute)
	if cw.Delta != 4 {
		t.Fatalf("multi-value match delta = %v, want 4", cw.Delta)
	}
	if _, ok := s.CounterWindow("solves_total", map[string][]string{"solver": {"dp-tree"}}, time.Minute); ok {
		t.Fatal("match with no series reported ok")
	}
}

// TestSamplerNilSafe: a nil sampler is a usable no-op everywhere.
func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Tick()
	s.OnPreTick(func() {})
	s.OnTick(func(time.Time) {})
	if s.Interval() != 0 || s.MaxWindow() != 0 || s.Ticks() != 0 {
		t.Fatal("nil sampler reported nonzero config")
	}
	if _, ok := s.CounterWindow("x", nil, time.Minute); ok {
		t.Fatal("nil sampler counter window ok")
	}
	if _, ok := s.GaugeWindow("x", nil, time.Minute); ok {
		t.Fatal("nil sampler gauge window ok")
	}
	if _, ok := s.HistogramWindow("x", nil, time.Minute); ok {
		t.Fatal("nil sampler histogram window ok")
	}
	if _, ok := s.GaugeTimeAt("x", nil, time.Minute, 1); ok {
		t.Fatal("nil sampler GaugeTimeAt ok")
	}
	if s.LabelValues("x", "y") != nil {
		t.Fatal("nil sampler LabelValues non-nil")
	}
	snap := s.SeriesSnapshot([]time.Duration{time.Minute}, "")
	if len(snap.Series) != 0 {
		t.Fatal("nil sampler snapshot has series")
	}

	// A sampler over a nil registry ticks over an empty one.
	s = NewSampler(nil, SamplerConfig{})
	s.Tick()
	if s.Ticks() != 1 || len(s.SeriesSnapshot([]time.Duration{time.Minute}, "").Series) != 0 {
		t.Fatal("sampler over a nil registry did not tick an empty one")
	}
	if _, ok := s.CounterWindow("x", nil, time.Minute); ok {
		t.Fatal("sampler over a nil registry reported a counter window")
	}
}

// TestSamplerHooks: pre-tick hooks run before the snapshot (their writes
// are sampled), post-tick hooks see the tick's clock time.
func TestSamplerHooks(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "test", nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	s.OnPreTick(func() { g.Set(42) })
	var hookAt time.Time
	s.OnTick(func(now time.Time) { hookAt = now })
	clk.Advance(time.Second)
	s.Tick()
	if !hookAt.Equal(clk.Now()) {
		t.Fatalf("OnTick time = %v, want %v", hookAt, clk.Now())
	}
	gw, ok := s.GaugeWindow("depth", nil, time.Minute)
	if !ok || gw.Last != 42 {
		t.Fatalf("pre-tick write not sampled: %+v ok=%v", gw, ok)
	}
}

// TestFormatWindow: the window names /debug/series and the SLO config use.
func TestFormatWindow(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{30 * time.Second, "30s"},
		{time.Minute, "1m"},
		{90 * time.Second, "1m30s"},
		{5 * time.Minute, "5m"},
		{15 * time.Minute, "15m"},
		{time.Hour, "1h"},
		{90 * time.Minute, "1h30m"},
	} {
		if got := FormatWindow(tc.d); got != tc.want {
			t.Errorf("FormatWindow(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestSeriesSnapshot: the /debug/series reduction carries kind-appropriate
// fields per window and honors the metric filter (exact and prefix).
func TestSeriesSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "test", Labels{"solver": "greedy"})
	g := reg.Gauge("depth", "test", nil)
	h := reg.Histogram("latency_seconds", "test", nil, nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		c.Add(2)
		g.Set(float64(i))
		h.Observe(0.25)
		s.Tick()
	}

	snap := s.SeriesSnapshot([]time.Duration{time.Minute}, "")
	if snap.Ticks != 3 || snap.Interval != "1s" {
		t.Fatalf("snapshot meta = ticks %d interval %s, want 3 / 1s", snap.Ticks, snap.Interval)
	}
	if len(snap.Windows) != 1 || snap.Windows[0] != "1m" {
		t.Fatalf("snapshot windows = %v, want [1m]", snap.Windows)
	}
	if len(snap.Series) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snap.Series))
	}
	byName := map[string]SeriesJSON{}
	for _, sj := range snap.Series {
		byName[sj.Name] = sj
	}
	cj := byName["jobs_total"]
	if cj.Kind != "counter" || cj.Labels["solver"] != "greedy" {
		t.Fatalf("counter series = %+v", cj)
	}
	agg := cj.Windows["1m"]
	if agg.Delta == nil || *agg.Delta != 4 || agg.Rate == nil || agg.Last != nil {
		t.Fatalf("counter window agg = %+v, want delta 4 and no gauge fields", agg)
	}
	gj := byName["depth"].Windows["1m"]
	if gj.Last == nil || *gj.Last != 2 || gj.Min == nil || *gj.Min != 0 || gj.Delta != nil {
		t.Fatalf("gauge window agg = %+v, want last 2 min 0 and no counter fields", gj)
	}
	hj := byName["latency_seconds"].Windows["1m"]
	if hj.Count == nil || *hj.Count != 2 || hj.P99 == nil || hj.Sum == nil {
		t.Fatalf("histogram window agg = %+v, want count 2 with quantiles", hj)
	}

	if snap := s.SeriesSnapshot([]time.Duration{time.Minute}, "depth"); len(snap.Series) != 1 || snap.Series[0].Name != "depth" {
		t.Fatalf("exact metric filter returned %v", snap.Series)
	}
	if snap := s.SeriesSnapshot([]time.Duration{time.Minute}, "lat*"); len(snap.Series) != 1 || snap.Series[0].Name != "latency_seconds" {
		t.Fatalf("prefix metric filter returned %v", snap.Series)
	}
	if snap := s.SeriesSnapshot([]time.Duration{time.Minute}, "nope"); len(snap.Series) != 0 {
		t.Fatalf("non-matching filter returned %v", snap.Series)
	}
}

// TestSeriesSnapshotOrder: /debug/series lists series in registration
// order (families as first registered, each family's series likewise),
// not in the order they were first sampled, and leaves out series with
// no sample yet.
func TestSeriesSnapshotOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "test", Labels{"k": "x"})
	reg.Gauge("a_depth", "test", nil)
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	clk.Advance(time.Second)
	s.Tick()
	reg.Counter("b_total", "test", Labels{"k": "y"}) // first sampled after a_depth
	clk.Advance(time.Second)
	s.Tick()
	reg.Gauge("c_depth", "test", nil) // never sampled

	var got []string
	for _, sj := range s.SeriesSnapshot([]time.Duration{time.Minute}, "").Series {
		got = append(got, sj.Name+"{"+sj.Labels["k"]+"}")
	}
	want := []string{"b_total{x}", "b_total{y}", "a_depth{}"}
	if !slices.Equal(got, want) {
		t.Fatalf("series order = %v, want %v", got, want)
	}
}

// TestSeriesSnapshotPerSeries: each /debug/series entry reduces its own
// series only, even where another series of the family carries a
// superset of its labels.
func TestSeriesSnapshotPerSeries(t *testing.T) {
	reg := NewRegistry()
	bare := reg.Counter("x_total", "test", nil)
	labelled := reg.Counter("x_total", "test", Labels{"k": "1"})
	s, clk := newTestSampler(reg, time.Second, time.Minute)
	clk.Advance(time.Second)
	s.Tick()
	bare.Add(1)
	labelled.Add(10)
	clk.Advance(time.Second)
	s.Tick()
	var got []string
	for _, sj := range s.SeriesSnapshot([]time.Duration{time.Minute}, "").Series {
		got = append(got, fmt.Sprintf("{%s}=%g", sj.Labels["k"], *sj.Windows["1m"].Delta))
	}
	if want := []string{"{}=1", "{1}=10"}; !slices.Equal(got, want) {
		t.Fatalf("series deltas = %v, want %v", got, want)
	}
}

// Interval returns the configured tick period.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Interval
}

// benchSampler builds a registry of 200 series (100 labelled counters,
// 50 gauges, 50 default-bucket histograms) and a sampler over it at the
// daemon's default 5s interval and 15m retention, ticked until every ring
// is full.
func benchSampler(b *testing.B) (*Sampler, *fakeClock, func()) {
	reg := NewRegistry()
	var counters []*Counter
	var gauges []*Gauge
	var hists []*Histogram
	for i := 0; i < 100; i++ {
		counters = append(counters, reg.Counter(fmt.Sprintf("bench_%d_total", i%10), "bench", Labels{"solver": fmt.Sprint(i)}))
	}
	for i := 0; i < 50; i++ {
		gauges = append(gauges, reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "bench", nil))
		hists = append(hists, reg.Histogram("bench_seconds", "bench", nil, Labels{"solver": fmt.Sprint(i)}))
	}
	s, clk := newTestSampler(reg, DefaultSeriesInterval, DefaultSeriesWindow)
	step := 0
	advance := func() {
		step++
		for i, c := range counters {
			c.Add(int64(i%3 + step%2))
		}
		for i, g := range gauges {
			g.Set(float64((i + step) % 7))
		}
		for i, h := range hists {
			h.Observe(float64((i+step)%40) * 0.01)
		}
		clk.Advance(DefaultSeriesInterval)
		s.Tick()
	}
	for i := 0; i < s.capacity(); i++ {
		advance()
	}
	return s, clk, advance
}

// BenchmarkSamplerTick measures one tick over 200 series whose rings are
// full, so every push evicts.
func BenchmarkSamplerTick(b *testing.B) {
	_, _, advance := benchSampler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance()
	}
}

// BenchmarkSeriesSnapshot measures the /debug/series reduction of 200
// full series over the default 1m, 5m and 15m windows.
func BenchmarkSeriesSnapshot(b *testing.B) {
	s, _, _ := benchSampler(b)
	windows := []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.SeriesSnapshot(windows, ""); len(snap.Series) != 200 {
			b.Fatalf("snapshot has %d series, want 200", len(snap.Series))
		}
	}
}
