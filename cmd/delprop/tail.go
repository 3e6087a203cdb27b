package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"delprop/internal/telemetry"
)

// runTail implements the "delprop tail" subcommand: follow a delpropd
// daemon's GET /events stream and render each event as one line of text
// (or raw JSON with -json). It is the CLI mirror of pointing curl -N at
// /events, minus the SSE framing.
func runTail(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("delprop tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "delpropd base URL (the public or ops listener)")
	tenant := fs.String("tenant", "", "only events for this tenant")
	solver := fs.String("solver", "", "only events for this solver")
	types := fs.String("type", "", "comma-separated event types to keep (e.g. solve_start,incumbent,solve_done)")
	asJSON := fs.Bool("json", false, "print each event as one JSON line instead of text")
	max := fs.Int("n", 0, "exit after this many events (0 = follow until the stream ends)")
	quiet := fs.Bool("quiet", false, "suppress heartbeat events")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: delprop tail [-addr url] [-tenant t] [-solver s] [-type a,b] [-json] [-n count] [-quiet]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := tail(*addr, *tenant, *solver, *types, *asJSON, *quiet, *max, stdout); err != nil {
		fmt.Fprintln(stderr, "delprop tail:", err)
		return 1
	}
	return 0
}

// tail opens the SSE stream and renders events until it ends, an error
// occurs, or max events have been printed.
func tail(addr, tenant, solver, types string, asJSON, quiet bool, max int, out io.Writer) error {
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("addr: %w", err)
	}
	u.Path = strings.TrimSuffix(u.Path, "/") + "/events"
	q := u.Query()
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if solver != "" {
		q.Set("solver", solver)
	}
	if types != "" {
		q.Set("type", types)
	}
	u.RawQuery = q.Encode()

	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	// No overall client timeout: the stream is long-lived by design.
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}

	// errDone unwinds ReadSSE once -n events have been printed.
	errDone := fmt.Errorf("done")
	printed := 0
	err = telemetry.ReadSSE(resp.Body, func(m telemetry.SSEMessage) error {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(m.Data), &ev); err != nil {
			return fmt.Errorf("malformed event %q: %w", m.Data, err)
		}
		if quiet && ev.Type == "heartbeat" {
			return nil
		}
		if asJSON {
			fmt.Fprintln(out, m.Data)
		} else {
			fmt.Fprintln(out, renderEvent(ev))
		}
		printed++
		if max > 0 && printed >= max {
			return errDone
		}
		return nil
	})
	if err == errDone { //nolint:errorlint // sentinel created above, never wrapped
		return nil
	}
	return err
}

// renderEvent renders one event as a single log-style line: timestamp,
// type, correlation ids, then the payload fields in the key order
// decoding gives them.
func renderEvent(ev telemetry.Event) string {
	var b strings.Builder
	ts := ev.Time
	if ts.IsZero() {
		ts = time.Now()
	}
	fmt.Fprintf(&b, "%s %-17s", ts.Format("15:04:05.000"), ev.Type)
	if ev.RequestID != "" {
		fmt.Fprintf(&b, " req=%s", ev.RequestID)
	}
	if ev.TraceID != 0 {
		fmt.Fprintf(&b, " trace=%d", ev.TraceID)
	}
	if ev.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", ev.Tenant)
	}
	if ev.Solver != "" {
		fmt.Fprintf(&b, " solver=%s", ev.Solver)
	}
	for _, f := range ev.Fields {
		fmt.Fprintf(&b, " %s=%s", f.Key, renderFieldValue(f.Value))
	}
	return b.String()
}

// renderFieldValue keeps numbers compact (JSON decodes them as float64)
// and everything else in its default form.
func renderFieldValue(v any) string {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%.3f", x)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}
