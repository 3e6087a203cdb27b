package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"delprop/internal/admission"
	"delprop/internal/telemetry"
)

// Rolling-series and SLO wiring: the sampler samples every registry
// series into its history ring each tick (delpropd drives it via Server.RunSampler; tests call
// Server.Sampler().Tick() with an injected clock), GET /debug/series
// serves the windowed aggregates, and the watchdog evaluates the -slo
// rules on the same tick — breaches become bus events, a counter, and
// flight-recorder captures (postmortem.go).

// defaultSeriesWindows are the /debug/series windows served when the
// request names none.
var defaultSeriesWindows = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// initSeries builds the sampler, flight recorder and (when rules are
// configured) the SLO watchdog. Called once from NewHandler, before any
// traffic.
func (a *api) initSeries() {
	if a.cfg.PostmortemCapacity > 0 {
		a.recorder = newFlightRecorder(a.cfg.PostmortemCapacity)
	}
	a.sampler = telemetry.NewSampler(a.metrics, telemetry.SamplerConfig{
		Interval:  a.cfg.SeriesInterval,
		MaxWindow: a.cfg.SeriesMaxWindow,
	})
	// Refresh the process gauges and breaker-state gauges on the tick so
	// the sampled series (and any /metrics scrape that follows) agree.
	a.sampler.OnPreTick(func() {
		a.updateRuntimeGauges()
		a.sampleBreakerStates()
	})
	a.slowSolve = resolveSlowSolve(a.cfg)
	if len(a.cfg.SLO.Rules) > 0 {
		a.watchdog = telemetry.NewWatchdog(a.sampler, a.cfg.SLO, a.onSLOBreach)
		a.sampler.OnTick(func(now time.Time) { a.watchdog.Evaluate(now) })
	}
}

// sampleBreakerStates writes every materialized breaker's state into the
// per-solver gauge, so the rolling windows measure open-dwell time
// between transitions (the transition hook alone only writes edges).
func (a *api) sampleBreakerStates() {
	if a.breakers == nil {
		return
	}
	reg := a.metrics
	a.breakers.EachState(func(solver string, st admission.BreakerState) {
		reg.Gauge(metricBreakerState,
			"Circuit breaker state per solver: 0 closed, 1 half-open, 2 open.",
			telemetry.Labels{"solver": solver}).Set(float64(st))
	})
}

// resolveSlowSolve turns Config.PostmortemSlowSolve into the effective
// over-SLO capture threshold: explicit positive wins, negative disables,
// and 0 derives the strictest latency-quantile bound the SLO config puts
// on a solve-latency histogram (so "over SLO" means what the watchdog
// means without repeating the number in a flag).
func resolveSlowSolve(cfg Config) time.Duration {
	if cfg.PostmortemSlowSolve != 0 {
		if cfg.PostmortemSlowSolve < 0 {
			return 0
		}
		return cfg.PostmortemSlowSolve
	}
	var strictest time.Duration
	for _, r := range cfg.SLO.Rules {
		if r.Max == nil {
			continue
		}
		switch r.Value.Stat {
		case "p50", "p95", "p99":
		default:
			continue
		}
		switch r.Value.Metric {
		case metricSolveDuration, metricAdmissionLatency:
		default:
			continue
		}
		d := time.Duration(*r.Max * float64(time.Second))
		if d > 0 && (strictest == 0 || d < strictest) {
			strictest = d
		}
	}
	return strictest
}

// onSLOBreach handles one watchdog transition: breaches increment
// delprop_slo_breaches_total, publish a slo_breach event and capture a
// postmortem bundle correlated to the most recent matching solve;
// recoveries publish slo_recovered so dashboards see both edges.
func (a *api) onSLOBreach(b telemetry.SLOBreach) {
	ev := sloEvent(b)
	if b.Recovered {
		a.publish(nil, ev)
		return
	}
	a.metrics.Counter(metricSLOBreaches,
		"SLO watchdog breaches detected, by rule (transitions into breach, not ticks spent breached).",
		telemetry.Labels{"rule": b.Rule}).Inc()
	rec := a.recorder.match(b.By, b.Target)
	if rec != nil {
		ev.RequestID, ev.TraceID = rec.reqID, rec.trace.ID()
	}
	breach := b
	if id := a.capturePostmortem(postmortemSLOBreach, rec, &breach); id != "" {
		ev.Fields = append(ev.Fields, telemetry.Field{Key: "postmortemId", Value: id})
	}
	a.publish(nil, ev)
}

// sloEvent reports one watchdog transition: slo_breach, or slo_recovered
// when b.Recovered.
func sloEvent(b telemetry.SLOBreach) telemetry.Event {
	// Room for target and the breach's postmortemId.
	fields := make(telemetry.Fields, 0, 7)
	fields = append(fields,
		telemetry.Field{Key: "rule", Value: b.Rule},
		telemetry.Field{Key: "window", Value: b.Window},
		telemetry.Field{Key: "value", Value: b.Value},
		telemetry.Field{Key: "threshold", Value: b.Threshold},
		telemetry.Field{Key: "bound", Value: b.Bound})
	if b.Target != "" {
		fields = append(fields, telemetry.Field{Key: "target", Value: b.Target})
	}
	ev := telemetry.Event{Type: eventSLOBreach, Fields: fields}
	if b.Recovered {
		ev.Type = eventSLORecovered
	}
	// A By-label target maps onto the event's own correlation fields when
	// the label is one the bus already speaks.
	switch b.By {
	case "solver":
		ev.Solver = b.Target
	case "tenant":
		ev.Tenant = b.Target
	}
	return ev
}

// handleSeries serves the rolling windowed aggregates as JSON. Query
// parameters: ?metric= filters by family name (exact, or prefix with a
// trailing *), ?window= is a comma-separated list of Go durations
// replacing the default 1m,5m,15m; each must fit the sampler's retention.
func (a *api) handleSeries(w http.ResponseWriter, r *http.Request) {
	windows := defaultSeriesWindows
	if spec := r.URL.Query().Get("window"); spec != "" {
		windows = nil
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			d, err := time.ParseDuration(part)
			if err != nil || d <= 0 {
				writeErr(w, http.StatusBadRequest, codeInvalidRequest,
					fmt.Errorf("window: bad duration %q", part), requestID(r))
				return
			}
			if d > a.sampler.MaxWindow() {
				writeErr(w, http.StatusBadRequest, codeInvalidRequest,
					fmt.Errorf("window: %v exceeds the %v retention", d, a.sampler.MaxWindow()), requestID(r))
				return
			}
			windows = append(windows, d)
		}
		if len(windows) == 0 {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Errorf("window: empty list"), requestID(r))
			return
		}
	} else {
		// Clip the defaults to the configured retention so a short
		// -series-window never advertises windows it cannot fill.
		clipped := make([]time.Duration, 0, len(windows))
		for _, d := range windows {
			if d <= a.sampler.MaxWindow() {
				clipped = append(clipped, d)
			}
		}
		if len(clipped) > 0 {
			windows = clipped
		} else {
			windows = []time.Duration{a.sampler.MaxWindow()}
		}
	}
	writeJSON(w, http.StatusOK, a.sampler.SeriesSnapshot(windows, r.URL.Query().Get("metric")))
}

// SLOResponse is the /debug/slo payload: every rule target's current
// standing (empty without a -slo config).
type SLOResponse struct {
	Rules []telemetry.SLOStatus `json:"rules"`
}

// handleSLO reports the watchdog's latest evaluations so an operator can
// see how close each rule is to its bound without reverse-engineering
// /debug/series.
func (a *api) handleSLO(w http.ResponseWriter, r *http.Request) {
	st := a.watchdog.Status()
	if st == nil {
		st = []telemetry.SLOStatus{}
	}
	writeJSON(w, http.StatusOK, SLOResponse{Rules: st})
}
