package main

import (
	"encoding/json"
	"testing"

	"delprop/internal/telemetry"
)

// TestRenderEvent pins delprop tail's text line for decoded /events data
// lines: correlation ids first, then the payload in key order, whole
// numbers as integers and fractional ones to three decimals.
func TestRenderEvent(t *testing.T) {
	cases := []struct{ data, want string }{
		{
			`{"seq":51,"time":"2026-01-02T03:04:05.6Z","type":"solve_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"degraded":true,"durationMs":1.25,"incumbents":2,"nodes":12,"objective":3,"outcome":"partial","rule":"overload"}}`,
			`03:04:05.600 solve_done        req=r7 trace=1 tenant=acme solver=brute-force degraded=true durationMs=1.250 incumbents=2 nodes=12 objective=3 outcome=partial rule=overload`,
		},
		{
			`{"seq":44,"time":"2026-01-02T03:04:05.6Z","type":"lower_bound","requestId":"r7","traceId":1,"solver":"greedy","fields":{"bound":0.0004,"delta":-2,"ratio":30000.5}}`,
			`03:04:05.600 lower_bound       req=r7 trace=1 solver=greedy bound=0.000 delta=-2 ratio=30000.500`,
		},
		{
			`{"seq":0,"time":"2026-01-02T03:04:05.6Z","type":"heartbeat","fields":{"dropped":0}}`,
			`03:04:05.600 heartbeat         dropped=0`,
		},
	}
	for _, c := range cases {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(c.data), &ev); err != nil {
			t.Fatal(err)
		}
		if got := renderEvent(ev); got != c.want {
			t.Errorf("renderEvent(%s)\n got %q\nwant %q", c.data, got, c.want)
		}
	}
}
