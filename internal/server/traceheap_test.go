package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"delprop/internal/telemetry"
)

// TestTraceRingRetainedHeap bounds the live heap the tracer keeps once
// its ring holds telemetry.DefaultTraceBuffer finished Fig. 1 solves:
// per trace its attributes, spans and events. The reading is the least
// of three, so a stray allocation elsewhere cannot inflate it. Each
// reading collects twice: objects a sync.Pool dropped survive one
// collection in its victim cache.
func TestTraceRingRetainedHeap(t *testing.T) {
	body, err := json.Marshal(InstanceRequest{
		Database:  fig1DB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	best := math.Inf(1)
	for range 3 {
		before := live()
		// Only the tracer outlives this block: the server, its metrics
		// and its flight recorder become garbage.
		tracer := func() *telemetry.Tracer {
			app := NewHandler(Config{})
			for range telemetry.DefaultTraceBuffer {
				rr := httptest.NewRecorder()
				app.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					t.Fatalf("solve status = %d: %s", rr.Code, rr.Body)
				}
			}
			return app.Tracer()
		}()
		if n := len(tracer.Snapshot()); n != telemetry.DefaultTraceBuffer {
			t.Fatalf("tracer holds %d traces, want %d", n, telemetry.DefaultTraceBuffer)
		}
		after := live()
		runtime.KeepAlive(tracer)
		best = min(best, (float64(after)-float64(before))/1024)
	}
	// 38.8 KB on linux/amd64, 39.2 KB under -race: about 620 bytes a
	// trace, its header and the block Finish froze it into. Kept in
	// their mutable form, the traces' attributes, spans and events took
	// 190 KB.
	t.Logf("trace ring retains %.1f KB", best)
	if best > 43 {
		t.Errorf("trace ring retains %.1f KB, want <= 43", best)
	}
}
