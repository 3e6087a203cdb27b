package telemetry

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Rolling time-series store. A Sampler ticks over a metrics Registry
// (driven by Run's ticker in production, or called directly with an
// injected clock in tests), appending each series' current value to that
// series' own fixed-size ring of samples. Reads reduce the rings into
// windowed aggregates — counters become increases and rates over the
// window, gauges report last/min/max/avg, histograms reduce to windowed
// p50/p95/p99 via the same bucket interpolation Histogram.Quantile uses —
// so "what happened over the last five minutes" has an answer even
// though the registry itself only accumulates forever. Counters and
// histograms never decrease, so a window's increase is its last sample
// minus its baseline, the sample just before the window. The server
// serves these aggregates at GET /debug/series and the SLO watchdog
// (slo.go) evaluates its rules against them each tick.

// Sampler defaults (delpropd's -series-interval/-series-window override).
const (
	DefaultSeriesInterval = 5 * time.Second
	DefaultSeriesWindow   = 15 * time.Minute
)

// SamplerConfig tunes a Sampler. Zero fields take the defaults.
type SamplerConfig struct {
	// Interval is the tick period Run uses (and the spacing rate math
	// assumes between samples).
	Interval time.Duration
	// MaxWindow bounds how far back windowed reads can reach; the ring
	// capacity is MaxWindow/Interval + a little slack.
	MaxWindow time.Duration
	// Clock is the time source (nil: time.Now); it exists so a test can
	// substitute a fake clock.
	Clock func() time.Time
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultSeriesInterval
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = DefaultSeriesWindow
	}
	if c.MaxWindow < c.Interval {
		c.MaxWindow = c.Interval
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// tickSample is one series' value at one tick. buckets (histograms) holds
// the cumulative per-slot counts at sample time; windowed reads subtract
// the baseline sample from the last, so storage stays cumulative like the
// registry.
type tickSample struct {
	at      time.Time
	value   float64 // counter cumulative count / gauge value
	count   int64   // histogram cumulative count
	sum     float64 // histogram cumulative sum
	buckets []int64 // histogram cumulative per-slot counts
}

// Sampler owns the tick loop over one registry; the sample rings live on
// the registry's series, guarded by its mutex. A nil *Sampler is a valid
// no-op (queries report no data), so embedding servers need no guards.
//
//delprop:nilsafe
type Sampler struct {
	reg *Registry
	cfg SamplerConfig // immutable after NewSampler

	mu      sync.Mutex
	ticks   int64                 //delprop:guardedby mu
	preTick []func()              //delprop:guardedby mu
	onTick  []func(now time.Time) //delprop:guardedby mu
}

// NewSampler returns a sampler over reg (nil samples an empty registry).
// It takes no samples until Tick (or Run) is called. The history lives on
// reg's series, so at most one sampler may tick over a registry.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Sampler{reg: reg, cfg: cfg.withDefaults()}
}

// MaxWindow returns the configured retention horizon.
func (s *Sampler) MaxWindow() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.MaxWindow
}

// capacity is the ring size: enough samples to cover MaxWindow at
// Interval spacing, plus slack for the baseline sample and jitter.
func (s *Sampler) capacity() int {
	c := int(s.cfg.MaxWindow/s.cfg.Interval) + 2
	if c < 2 {
		c = 2
	}
	if c > 1<<14 {
		c = 1 << 14
	}
	return c
}

// OnPreTick registers fn to run at the start of every tick, before the
// registry is sampled — the server refreshes its runtime and
// breaker-state gauges here so sampled values are current. Register
// before Run starts.
func (s *Sampler) OnPreTick(fn func()) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.preTick = append(s.preTick, fn)
	s.mu.Unlock()
}

// OnTick registers fn to run after every tick's samples are stored — the
// SLO watchdog evaluates its rules here, seeing the windows the tick just
// extended. Register before Run starts.
func (s *Sampler) OnTick(fn func(now time.Time)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.onTick = append(s.onTick, fn)
	s.mu.Unlock()
}

// Tick takes one sample of every registry series at the clock's current
// time. Safe for concurrent use with readers; hooks run outside the
// sampler lock.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	pre := make([]func(), len(s.preTick))
	copy(pre, s.preTick)
	s.mu.Unlock()
	for _, fn := range pre {
		fn()
	}
	s.reg.sample(now, s.capacity())
	s.mu.Lock()
	s.ticks++
	post := make([]func(time.Time), len(s.onTick))
	copy(post, s.onTick)
	s.mu.Unlock()
	for _, fn := range post {
		fn(now)
	}
}

// sample appends every series' current value, stamped now, to its ring,
// sizing the ring to capacity on the series' first tick.
func (r *Registry) sample(now time.Time, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		for _, sr := range f.series {
			if sr.samples.Len() == 0 {
				sr.samples = NewRing[tickSample](capacity)
			}
			t := tickSample{at: now}
			switch m := sr.metric.(type) {
			case *Counter:
				t.value = float64(m.Value())
			case *Gauge:
				t.value = m.Value()
			case *Histogram:
				t.count, t.sum = m.Count(), m.Sum()
				t.buckets = make([]int64, len(m.buckets))
				for i := range m.buckets {
					t.buckets[i] = m.buckets[i].Load()
				}
			}
			sr.samples.Push(t)
		}
	}
}

// Run ticks at the configured interval until ctx is done. delpropd runs
// this in a goroutine for the daemon's lifetime.
func (s *Sampler) Run(ctx context.Context) {
	if s == nil {
		return
	}
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Ticks returns how many samples have been taken.
func (s *Sampler) Ticks() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// matchLabels reports whether a series' labels pass the match spec: every
// listed label must be present with one of the accepted values. An empty
// spec matches every series of the family.
func matchLabels(labels Labels, match map[string][]string) bool {
	for k, accepted := range match {
		v, ok := labels[k]
		if !ok {
			return false
		}
		found := false
		for _, a := range accepted {
			if v == a {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// seriesOf returns the named family's series in registration order, or
// nil when there is no such family of that kind.
//
//delprop:holds mu
func (r *Registry) seriesOf(name string, kind metricKind) []*series {
	if f := r.families[name]; f != nil && f.kind == kind {
		return f.series
	}
	return nil
}

// since returns the index of the first sample taken after cut (Len when
// none was).
func (sr *series) since(cut time.Time) int {
	return sort.Search(sr.samples.Len(), func(i int) bool { return sr.samples.At(i).at.After(cut) })
}

// window returns the index of the first sample covering [now-w, now]: the
// baseline just before the window when the ring holds one, else the
// oldest sample. With no sample inside the window it is the last one.
func (sr *series) window(now time.Time, w time.Duration) int {
	return max(sr.since(now.Add(-w))-1, 0)
}

// CounterWindow is a counter family's windowed aggregate.
type CounterWindow struct {
	// Delta is the summed increase across matching series in the window.
	Delta float64 `json:"delta"`
	// Rate is Delta per second over the observed span.
	Rate float64 `json:"rate"`
	// Samples is the largest per-series sample count contributing.
	Samples int `json:"samples"`
}

// CounterWindow reduces the matching counter series over the last w. ok
// is false when no matching series has at least two samples (no delta can
// be measured yet).
func (s *Sampler) CounterWindow(name string, match map[string][]string, w time.Duration) (CounterWindow, bool) {
	if s == nil {
		return CounterWindow{}, false
	}
	now := s.cfg.Clock()
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	return counterWindow(s.reg.seriesOf(name, kindCounter), match, now, w)
}

// counterWindow reduces the counter series of ss passing match. Each
// series' increase is its last sample minus its baseline.
func counterWindow(ss []*series, match map[string][]string, now time.Time, w time.Duration) (CounterWindow, bool) {
	var agg CounterWindow
	var maxElapsed time.Duration
	ok := false
	for _, sr := range ss {
		if !matchLabels(sr.labels, match) {
			continue
		}
		start, n := sr.window(now, w), sr.samples.Len()
		if n-start < 2 {
			continue
		}
		base, last := sr.samples.At(start), sr.samples.At(n-1)
		agg.Delta += last.value - base.value
		maxElapsed = max(maxElapsed, last.at.Sub(base.at))
		agg.Samples = max(agg.Samples, n-start)
		ok = true
	}
	if maxElapsed > 0 {
		agg.Rate = agg.Delta / maxElapsed.Seconds()
	}
	return agg, ok
}

// GaugeWindow is a gauge family's windowed aggregate. With several
// matching series the Last/Avg values are summed across series (the
// natural reading for per-tenant in-flight style gauges) while Min/Max
// are the extremes seen on any single series.
type GaugeWindow struct {
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Avg     float64 `json:"avg"`
	Samples int     `json:"samples"`
}

// GaugeWindow reduces the matching gauge series over the last w.
func (s *Sampler) GaugeWindow(name string, match map[string][]string, w time.Duration) (GaugeWindow, bool) {
	if s == nil {
		return GaugeWindow{}, false
	}
	now := s.cfg.Clock()
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	return gaugeWindow(s.reg.seriesOf(name, kindGauge), match, now, w)
}

// gaugeWindow reduces the gauge series of ss passing match over the
// samples taken inside the window.
func gaugeWindow(ss []*series, match map[string][]string, now time.Time, w time.Duration) (GaugeWindow, bool) {
	agg := GaugeWindow{Min: math.Inf(1), Max: math.Inf(-1)}
	ok := false
	for _, sr := range ss {
		if !matchLabels(sr.labels, match) {
			continue
		}
		first, n := sr.since(now.Add(-w)), sr.samples.Len()
		if first == n {
			continue
		}
		var sum float64
		for i := first; i < n; i++ {
			v := sr.samples.At(i).value
			sum += v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
		}
		agg.Last += sr.samples.At(n - 1).value
		agg.Avg += sum / float64(n-first)
		agg.Samples = max(agg.Samples, n-first)
		ok = true
	}
	if !ok {
		return GaugeWindow{}, false
	}
	return agg, true
}

// GaugeTimeAt estimates how long, within the last w, the matching gauge
// series sat at target: the sum of inter-sample spans whose starting
// sample equaled target, clipped to the window. With several matching
// series the durations add (two breakers open for 10s each read 20s).
func (s *Sampler) GaugeTimeAt(name string, match map[string][]string, w time.Duration, target float64) (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	now := s.cfg.Clock()
	cut := now.Add(-w)
	var total time.Duration
	ok := false
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	for _, sr := range s.reg.seriesOf(name, kindGauge) {
		if !matchLabels(sr.labels, match) {
			continue
		}
		n := sr.samples.Len()
		if n == 0 {
			continue
		}
		ok = true
		for i := sr.window(now, w); i < n; i++ {
			sm := sr.samples.At(i)
			if sm.value != target {
				continue
			}
			segStart := sm.at
			if segStart.Before(cut) {
				segStart = cut
			}
			segEnd := now
			if i+1 < n {
				segEnd = sr.samples.At(i + 1).at
			}
			if segEnd.After(segStart) {
				total += segEnd.Sub(segStart)
			}
		}
	}
	return total, ok
}

// HistogramWindow is a histogram family's windowed aggregate: the count,
// sum and quantiles of the observations that landed inside the window,
// merged across matching series (quantiles merge correctly because the
// bucket deltas add).
type HistogramWindow struct {
	Count   int64   `json:"count"`
	Rate    float64 `json:"rate"`
	Sum     float64 `json:"sum"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Samples int     `json:"samples"`

	bounds  []float64
	buckets []int64
}

// bucketQuantile interpolates the q-quantile from bucket counts (a live
// histogram's, or windowed deltas): linear inside the target bucket, the
// largest finite bound when the rank lands in the +Inf overflow.
func bucketQuantile(bounds []float64, buckets []int64, total int64, q float64) float64 {
	if total <= 0 || len(bounds) == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum, lower := int64(0), 0.0
	for i, bound := range bounds {
		var c int64
		if i < len(buckets) {
			c = buckets[i]
		}
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (bound-lower)*frac
		}
		cum += c
		lower = bound
	}
	return bounds[len(bounds)-1]
}

// HistogramWindow reduces the matching histogram series over the last w.
func (s *Sampler) HistogramWindow(name string, match map[string][]string, w time.Duration) (HistogramWindow, bool) {
	if s == nil {
		return HistogramWindow{}, false
	}
	now := s.cfg.Clock()
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	return histogramWindow(s.reg.seriesOf(name, kindHistogram), match, now, w)
}

// histogramWindow reduces the histogram series of ss passing match. Each
// series' count, sum and bucket counts are its last sample minus its
// baseline.
func histogramWindow(ss []*series, match map[string][]string, now time.Time, w time.Duration) (HistogramWindow, bool) {
	var agg HistogramWindow
	var maxElapsed time.Duration
	ok := false
	for _, sr := range ss {
		if !matchLabels(sr.labels, match) {
			continue
		}
		start, n := sr.window(now, w), sr.samples.Len()
		if n-start < 2 {
			continue
		}
		base, last := sr.samples.At(start), sr.samples.At(n-1)
		agg.Count += last.count - base.count
		agg.Sum += last.sum - base.sum
		if agg.bounds == nil {
			agg.bounds = sr.metric.(*Histogram).bounds
			agg.buckets = make([]int64, len(agg.bounds))
		}
		for j := 0; j < len(agg.buckets) && j < len(last.buckets); j++ {
			agg.buckets[j] += last.buckets[j] - base.buckets[j]
		}
		maxElapsed = max(maxElapsed, last.at.Sub(base.at))
		agg.Samples = max(agg.Samples, n-start)
		ok = true
	}
	if !ok {
		return HistogramWindow{}, false
	}
	if maxElapsed > 0 {
		agg.Rate = float64(agg.Count) / maxElapsed.Seconds()
	}
	agg.P50 = bucketQuantile(agg.bounds, agg.buckets, agg.Count, 0.50)
	agg.P95 = bucketQuantile(agg.bounds, agg.buckets, agg.Count, 0.95)
	agg.P99 = bucketQuantile(agg.bounds, agg.buckets, agg.Count, 0.99)
	return agg, true
}

// Quantile reduces the matching histogram series over the last w to one
// quantile estimate. ok is false when the window holds no observations —
// callers fall back to the lifetime histogram then.
func (s *Sampler) Quantile(name string, match map[string][]string, w time.Duration, q float64) (float64, bool) {
	hw, ok := s.HistogramWindow(name, match, w)
	if !ok || hw.Count == 0 {
		return 0, false
	}
	return bucketQuantile(hw.bounds, hw.buckets, hw.Count, q), true
}

// LabelValues returns the distinct values the named label takes across
// the sampled series of one family, sorted — the SLO watchdog expands
// per-solver rules over these.
func (s *Sampler) LabelValues(name, label string) []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	s.reg.mu.RLock()
	if f := s.reg.families[name]; f != nil {
		for _, sr := range f.series {
			if v, ok := sr.labels[label]; ok && sr.samples.Len() > 0 {
				seen[v] = true
			}
		}
	}
	s.reg.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FormatWindow renders a window duration the way /debug/series and the
// SLO config name them: "30s", "1m", "5m", "1h".
func FormatWindow(d time.Duration) string {
	str := d.String()
	if strings.HasSuffix(str, "m0s") {
		str = strings.TrimSuffix(str, "0s")
	}
	if strings.HasSuffix(str, "h0m") {
		str = strings.TrimSuffix(str, "0m")
	}
	return str
}

// WindowAggJSON is one window's aggregate in the /debug/series schema;
// which fields appear depends on the series kind.
type WindowAggJSON struct {
	Samples int `json:"samples"`
	// Counters (and histogram throughput).
	Delta *float64 `json:"delta,omitempty"`
	Rate  *float64 `json:"rate,omitempty"`
	// Gauges.
	Last *float64 `json:"last,omitempty"`
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
	Avg  *float64 `json:"avg,omitempty"`
	// Histograms.
	Count *int64   `json:"count,omitempty"`
	Sum   *float64 `json:"sum,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

// SeriesJSON is one series with its windowed aggregates.
type SeriesJSON struct {
	Name    string                   `json:"name"`
	Kind    string                   `json:"kind"`
	Labels  Labels                   `json:"labels,omitempty"`
	Windows map[string]WindowAggJSON `json:"windows"`
}

// SeriesSetJSON is the /debug/series payload.
type SeriesSetJSON struct {
	Now      time.Time    `json:"now"`
	Interval string       `json:"interval"`
	Ticks    int64        `json:"ticks"`
	Windows  []string     `json:"windows"`
	Series   []SeriesJSON `json:"series"`
}

func f64p(v float64) *float64 { return &v }

// SeriesSnapshot reduces every sampled series (optionally filtered by
// metric name — exact, or prefix with a trailing '*') over the given
// windows. Series come in registration order: families in the order they
// were first registered, each family's series likewise. A series is
// listed once it has a sample; windows render under their FormatWindow
// names.
func (s *Sampler) SeriesSnapshot(windows []time.Duration, metric string) SeriesSetJSON {
	out := SeriesSetJSON{Series: []SeriesJSON{}}
	if s == nil {
		return out
	}
	out.Now = s.cfg.Clock()
	out.Interval = s.cfg.Interval.String()
	for _, w := range windows {
		out.Windows = append(out.Windows, FormatWindow(w))
	}
	s.mu.Lock()
	out.Ticks = s.ticks
	s.mu.Unlock()
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	for _, f := range s.reg.order {
		if !metricMatches(f.name, metric) {
			continue
		}
		for i, sr := range f.series {
			if sr.samples.Len() == 0 {
				continue
			}
			one := f.series[i : i+1]
			sj := SeriesJSON{Name: f.name, Kind: string(f.kind), Labels: sr.labels, Windows: make(map[string]WindowAggJSON, len(windows))}
			for _, w := range windows {
				var agg WindowAggJSON
				switch f.kind {
				case kindCounter:
					cw, ok := counterWindow(one, nil, out.Now, w)
					if !ok {
						continue
					}
					agg.Samples = cw.Samples
					agg.Delta = f64p(cw.Delta)
					agg.Rate = f64p(cw.Rate)
				case kindGauge:
					gw, ok := gaugeWindow(one, nil, out.Now, w)
					if !ok {
						continue
					}
					agg.Samples = gw.Samples
					agg.Last = f64p(gw.Last)
					agg.Min = f64p(gw.Min)
					agg.Max = f64p(gw.Max)
					agg.Avg = f64p(gw.Avg)
				case kindHistogram:
					hw, ok := histogramWindow(one, nil, out.Now, w)
					if !ok {
						continue
					}
					agg.Samples = hw.Samples
					agg.Count = &hw.Count
					agg.Sum = f64p(hw.Sum)
					agg.Rate = f64p(hw.Rate)
					agg.P50 = f64p(hw.P50)
					agg.P95 = f64p(hw.P95)
					agg.P99 = f64p(hw.P99)
				}
				sj.Windows[FormatWindow(w)] = agg
			}
			out.Series = append(out.Series, sj)
		}
	}
	return out
}

// metricMatches reports whether a family name passes the /debug/series
// metric filter: empty passes every name, a trailing '*' makes the rest a
// prefix, anything else must equal the name.
func metricMatches(name, metric string) bool {
	if prefix, ok := strings.CutSuffix(metric, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return metric == "" || name == metric
}
