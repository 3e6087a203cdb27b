package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"delprop/internal/telemetry"
)

// Live telemetry egress: the solve path, the admission ladder and the
// circuit breakers publish typed events onto the api's events bus (a bounded,
// non-blocking telemetry.Bus), and GET /events streams them as
// Server-Sent Events. docs/OBSERVABILITY.md documents the event schema;
// cmd/delprop's tail subcommand is the reference consumer.

// Event type names published by the server. The core-layer progress
// kinds (incumbent, lower_bound, race_member_start, race_member_done)
// pass through with their core.Progress* names.
const (
	eventSolveStart = "solve_start"
	eventPhase      = "phase"
	eventSolveDone  = "solve_done"
	eventAdmission  = "admission"
	eventBreaker    = "breaker"
	// SLO watchdog transitions (series.go): a rule crossing its bound,
	// and its return inside it.
	eventSLOBreach    = "slo_breach"
	eventSLORecovered = "slo_recovered"
	// Session registry lifecycle (session.go): warm lookups served from a
	// resident entry, lookups that found nothing warm, and removals (the
	// "reason" field carries ttl/capacity/explicit/drain/error).
	eventSessionHit     = "session_hit"
	eventSessionMiss    = "session_miss"
	eventSessionEvicted = "session_evicted"
	// Stream-control events are synthesized per subscriber by the SSE
	// handler, outside the bus (so type filters never starve a consumer
	// of its keep-alives or its drop accounting).
	eventHeartbeat = "heartbeat"
	eventStreamEnd = "stream_end"
)

// eventFilter builds the subscriber's filter from the /events query
// parameters: ?tenant= and ?solver= match exactly, ?type= is a
// comma-separated OR over event types.
func eventFilter(r *http.Request) telemetry.Filter {
	q := r.URL.Query()
	f := telemetry.Filter{Tenant: q.Get("tenant"), Solver: q.Get("solver")}
	if spec := q.Get("type"); spec != "" {
		f.Types = make(map[string]bool)
		for _, t := range strings.Split(spec, ",") {
			if t = strings.TrimSpace(t); t != "" {
				f.Types[t] = true
			}
		}
	}
	return f
}

// handleEvents streams the live telemetry bus as Server-Sent Events.
// Each bus event becomes one SSE frame whose event name is the type and
// whose data is the JSON-encoded telemetry.Event (the id field carries
// the bus sequence number, so gaps are visible). Idle streams emit
// heartbeat events carrying the subscriber's cumulative drop counter;
// when the subscription ends server-side (drain), a final stream_end
// event reports the total drops before the connection closes. The
// publisher never waits on this handler: a stalled consumer sheds its
// oldest buffered events instead of slowing solves.
func (a *api) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, codeInternal,
			errors.New("response writer does not support streaming"), requestID(r))
		return
	}
	sub := a.events.Subscribe(eventFilter(r), a.cfg.EventBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(a.cfg.EventHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.Done():
			// Drain-side close: deliver what is buffered, then account for
			// the losses in a terminal event.
			a.writeEvents(w, sub.Drain(0))
			a.writeStreamEvent(w, streamEvent(eventStreamEnd, sub.Dropped()))
			flusher.Flush()
			return
		case <-heartbeat.C:
			if !a.writeStreamEvent(w, streamEvent(eventHeartbeat, sub.Dropped())) {
				return
			}
			flusher.Flush()
		case <-sub.Notify():
			if !a.writeEvents(w, sub.Drain(0)) {
				return
			}
			flusher.Flush()
		}
	}
}

// writeEvents frames a batch of bus events; it reports whether every
// write succeeded (a false return means the client is gone).
func (a *api) writeEvents(w http.ResponseWriter, evs []telemetry.Event) bool {
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		if telemetry.WriteSSE(w, ev.Type, strconv.FormatUint(ev.Seq, 10), string(data)) != nil {
			return false
		}
	}
	return true
}

// streamEvent synthesizes one stream-control event (heartbeat,
// stream_end) carrying the subscriber's cumulative drop count. These
// never pass through the bus, so they carry no sequence number and
// bypass the subscriber's type filter.
func streamEvent(typ string, dropped int64) telemetry.Event {
	return telemetry.Event{Type: typ, Time: time.Now(), Fields: telemetry.Fields{{Key: "dropped", Value: dropped}}}
}

// writeStreamEvent frames one stream-control event.
func (a *api) writeStreamEvent(w http.ResponseWriter, ev telemetry.Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	return telemetry.WriteSSE(w, ev.Type, "", string(data)) == nil
}
