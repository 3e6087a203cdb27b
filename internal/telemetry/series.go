package telemetry

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Rolling time-series store. A Sampler snapshots the metrics Registry on
// a tick (driven by Run's ticker in production, or called directly with
// an injected clock in tests) into one fixed-size ring per series. Reads
// reduce the rings into windowed aggregates — counters become rates over
// the window, gauges report last/min/max/avg, histograms reduce to
// windowed p50/p95/p99 via the same bucket interpolation
// Histogram.Quantile uses — so "what happened over the last five minutes"
// has an answer even though the registry itself only accumulates forever.
// The server serves these aggregates at GET /debug/series and the SLO
// watchdog (slo.go) evaluates its rules against them each tick.

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
// pairs of samples, so storage stays cumulative like the registry.
type tickSample struct {
	at      time.Time
	value   float64 // counter cumulative count / gauge value
	count   int64   // histogram cumulative count
	sum     float64 // histogram cumulative sum
	buckets []int64 // histogram cumulative per-slot counts
}

// seriesRing is the bounded sample history of one (metric, labels)
// series: the most recent samples, oldest first.
type seriesRing struct {
	name      string
	kind      string
	labelsKey string
	labels    Labels
	bounds    []float64
	samples   Ring[tickSample]
}

// selectWindow returns the samples covering [now-w, now]: every sample
// inside the window plus the one immediately before it (the baseline
// counter deltas are measured from). Oldest first.
func (r *seriesRing) selectWindow(now time.Time, w time.Duration) []tickSample {
	cut := now.Add(-w)
	n := r.samples.Len()
	first := n // index of the first in-window sample
	for i := 0; i < n; i++ {
		if r.samples.At(i).at.After(cut) {
			first = i
			break
		}
	}
	start := first
	if start > 0 {
		start-- // baseline
	}
	out := make([]tickSample, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, r.samples.At(i))
	}
	return out
}

// Sampler owns the rings and the tick loop. A nil *Sampler is a valid
// no-op (queries report no data), so embedding servers need no guards.
//
//delprop:nilsafe
type Sampler struct {
	reg *Registry
	cfg SamplerConfig // immutable after NewSampler

	mu       sync.Mutex
	rings    map[string]*seriesRing //delprop:guardedby mu
	order    []string               //delprop:guardedby mu
	ticks    int64                  //delprop:guardedby mu
	lastTick time.Time              //delprop:guardedby mu
	preTick  []func()               //delprop:guardedby mu
	onTick   []func(now time.Time)  //delprop:guardedby mu
}

// NewSampler returns a sampler over reg. It takes no samples until Tick
// (or Run) is called.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	return &Sampler{reg: reg, cfg: cfg.withDefaults(), rings: make(map[string]*seriesRing)}
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
// registry is snapshotted — the server refreshes its runtime and
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
	snap := s.reg.Snapshot()
	s.mu.Lock()
	for _, m := range snap {
		key := m.Name + "\x00" + m.LabelsKey
		ring, ok := s.rings[key]
		if !ok {
			ring = &seriesRing{
				name:      m.Name,
				kind:      m.Kind,
				labelsKey: m.LabelsKey,
				labels:    m.Labels,
				bounds:    m.Bounds,
				samples:   NewRing[tickSample](s.capacity()),
			}
			s.rings[key] = ring
			s.order = append(s.order, key)
		}
		ring.samples.Push(tickSample{at: now, value: m.Value, count: m.Count, sum: m.Sum, buckets: m.Buckets})
	}
	s.ticks++
	s.lastTick = now
	post := make([]func(time.Time), len(s.onTick))
	copy(post, s.onTick)
	s.mu.Unlock()
	for _, fn := range post {
		fn(now)
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

// matching returns the rings of one family and kind passing match, in
// first-sampled order.
//
//delprop:holds mu
func (s *Sampler) matching(name, kind string, match map[string][]string) []*seriesRing {
	var out []*seriesRing
	for _, key := range s.order {
		if r := s.rings[key]; r.name == name && r.kind == kind && matchLabels(r.labels, match) {
			out = append(out, r)
		}
	}
	return out
}

// counterIncrease walks the window's sample pairs summing increments with
// counter-reset tolerance: a sample below its predecessor means the
// process (or counter) restarted, so the new cumulative value *is* the
// increment since the reset.
func counterIncrease(samples []tickSample) (delta float64, elapsed time.Duration) {
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.value >= prev.value {
			delta += cur.value - prev.value
		} else {
			delta += cur.value
		}
	}
	if len(samples) >= 2 {
		elapsed = samples[len(samples)-1].at.Sub(samples[0].at)
	}
	return delta, elapsed
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
	var agg CounterWindow
	var maxElapsed time.Duration
	ok := false
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.matching(name, "counter", match) {
		samples := r.selectWindow(now, w)
		if len(samples) < 2 {
			continue
		}
		delta, elapsed := counterIncrease(samples)
		agg.Delta += delta
		if elapsed > maxElapsed {
			maxElapsed = elapsed
		}
		if len(samples) > agg.Samples {
			agg.Samples = len(samples)
		}
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
	cut := now.Add(-w)
	var agg GaugeWindow
	agg.Min = math.Inf(1)
	agg.Max = math.Inf(-1)
	ok := false
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.matching(name, "gauge", match) {
		var sum float64
		n := 0
		var last float64
		for i := 0; i < r.samples.Len(); i++ {
			sm := r.samples.At(i)
			if !sm.at.After(cut) {
				continue
			}
			sum += sm.value
			last = sm.value
			n++
			if sm.value < agg.Min {
				agg.Min = sm.value
			}
			if sm.value > agg.Max {
				agg.Max = sm.value
			}
		}
		if n == 0 {
			continue
		}
		agg.Last += last
		agg.Avg += sum / float64(n)
		if n > agg.Samples {
			agg.Samples = n
		}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.matching(name, "gauge", match) {
		samples := r.selectWindow(now, w)
		if len(samples) == 0 {
			continue
		}
		ok = true
		for i := 0; i < len(samples); i++ {
			if samples[i].value != target {
				continue
			}
			segStart := samples[i].at
			if segStart.Before(cut) {
				segStart = cut
			}
			segEnd := now
			if i+1 < len(samples) {
				segEnd = samples[i+1].at
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

// histIncrease subtracts the window's first histogram sample from its
// last with reset tolerance (count going backwards means restart).
func histIncrease(samples []tickSample, nBuckets int) (count int64, sum float64, buckets []int64) {
	buckets = make([]int64, nBuckets)
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.count >= prev.count {
			count += cur.count - prev.count
			sum += cur.sum - prev.sum
			for j := 0; j < nBuckets && j < len(cur.buckets) && j < len(prev.buckets); j++ {
				buckets[j] += cur.buckets[j] - prev.buckets[j]
			}
		} else {
			count += cur.count
			sum += cur.sum
			for j := 0; j < nBuckets && j < len(cur.buckets); j++ {
				buckets[j] += cur.buckets[j]
			}
		}
	}
	return count, sum, buckets
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
	var agg HistogramWindow
	var maxElapsed time.Duration
	ok := false
	s.mu.Lock()
	for _, r := range s.matching(name, "histogram", match) {
		samples := r.selectWindow(now, w)
		if len(samples) < 2 {
			continue
		}
		count, sum, buckets := histIncrease(samples, len(r.bounds))
		agg.Count += count
		agg.Sum += sum
		if agg.bounds == nil {
			agg.bounds = r.bounds
			agg.buckets = buckets
		} else {
			for j := 0; j < len(agg.buckets) && j < len(buckets); j++ {
				agg.buckets[j] += buckets[j]
			}
		}
		if e := samples[len(samples)-1].at.Sub(samples[0].at); e > maxElapsed {
			maxElapsed = e
		}
		if len(samples) > agg.Samples {
			agg.Samples = len(samples)
		}
		ok = true
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	seen := make(map[string]bool)
	for _, key := range s.order {
		r := s.rings[key]
		if r.name != name {
			continue
		}
		if v, ok := r.labels[label]; ok {
			seen[v] = true
		}
	}
	s.mu.Unlock()
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
// windows. Series order follows first-sampled order; windows render under
// their FormatWindow names.
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
	keys := append([]string(nil), s.order...)
	out.Ticks = s.ticks
	s.mu.Unlock()
	prefix := ""
	if strings.HasSuffix(metric, "*") {
		prefix = strings.TrimSuffix(metric, "*")
	}
	for _, key := range keys {
		s.mu.Lock()
		r := s.rings[key]
		s.mu.Unlock()
		if metric != "" {
			if prefix != "" {
				if !strings.HasPrefix(r.name, prefix) {
					continue
				}
			} else if r.name != metric {
				continue
			}
		}
		sj := SeriesJSON{Name: r.name, Kind: r.kind, Labels: r.labels, Windows: make(map[string]WindowAggJSON, len(windows))}
		match := exactMatch(r.labels)
		for _, w := range windows {
			var agg WindowAggJSON
			switch r.kind {
			case "counter":
				cw, ok := s.CounterWindow(r.name, match, w)
				if !ok {
					continue
				}
				agg.Samples = cw.Samples
				agg.Delta = f64p(cw.Delta)
				agg.Rate = f64p(cw.Rate)
			case "gauge":
				gw, ok := s.GaugeWindow(r.name, match, w)
				if !ok {
					continue
				}
				agg.Samples = gw.Samples
				agg.Last = f64p(gw.Last)
				agg.Min = f64p(gw.Min)
				agg.Max = f64p(gw.Max)
				agg.Avg = f64p(gw.Avg)
			case "histogram":
				hw, ok := s.HistogramWindow(r.name, match, w)
				if !ok {
					continue
				}
				agg.Samples = hw.Samples
				count := hw.Count
				agg.Count = &count
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
	return out
}

// exactMatch builds a match spec selecting exactly one series' labels.
func exactMatch(labels Labels) map[string][]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string][]string, len(labels))
	for k, v := range labels {
		m[k] = []string{v}
	}
	return m
}
