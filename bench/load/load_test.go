package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must charge the stall to every request whose
// send slot fell inside it, not only to the request it held up.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	send := func(i int) result {
		res := result{entry: i, start: time.Now()}
		resp, err := srv.Client().Get(srv.URL)
		if err == nil {
			res.status = resp.StatusCode
			resp.Body.Close()
		}
		res.end, res.err = time.Now(), err
		return res
	}
	var next atomic.Int64
	take := func() int { return int(next.Add(1) - 1) }

	const rate = 100 // one slot every 10ms
	results := openLoop(send, take, 1, rate, time.Second)
	if len(results) != rate {
		t.Fatalf("got %d results, want %d", len(results), rate)
	}
	// Request k was due 10k ms after request 0 but could only start once
	// the stall ended, at least 200ms after request 0 was due.
	for k := 1; k <= 15; k++ {
		r := results[k]
		want := stall - time.Duration(k)*10*time.Millisecond
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", k, r.status, r.err)
		}
		if got := r.latency(); got < want {
			t.Errorf("request %d: latency %v, want at least %v of the stall", k, got, want)
		}
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		valid bool
	}{
		{n: 1000, p: 99, v: 990, valid: true},
		{n: 999, p: 95, v: 950, valid: true},
		{n: 10000, p: 99.9, v: 9990, valid: true},
		{n: 20, p: 50, v: 10, valid: true},
		{n: 19, valid: false},
	} {
		p, v, n, ok := tail(seq(tc.n))
		if n != tc.n || ok != tc.valid || (ok && (p != tc.p || v != tc.v)) {
			t.Errorf("tail(1..%d) = p%v %v n=%d ok=%v, want p%v %v n=%d ok=%v", tc.n, p, v, n, ok, tc.p, tc.v, tc.n, tc.valid)
		}
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"cold-kp", "batch-tiny"} {
		w, _ := findWorkload(name)
		insts := make([]*instance, len(w.instances))
		for i, is := range w.instances {
			in, err := newInstance(is)
			if err != nil {
				t.Fatal(err)
			}
			insts[i] = in
		}
		bodies := func(seed int64) [][]byte {
			s := newStream(w.route, insts, seed)
			var out [][]byte
			for i := 0; i < 64; i++ {
				_, body, err := request(s.route, insts, s.at(i), nil, 2)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, body)
			}
			return out
		}
		a, b, c := bodies(1), bodies(1), bodies(2)
		differ := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 1 gave two different bodies for entry %d", name, i)
			}
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 gave the same 64 bodies", name)
		}
	}
}

// A short run of every workload against the real handler answers every
// request correctly.
func TestShortRunOfEveryWorkloadHasNoErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			smokeRun(t, w)
		})
	}
}

func smokeRun(t *testing.T, w spec) {
	args := []string{"-workload", w.name, "-seconds", "0.4", "-seed", "3"}
	if w.route == routeBatch {
		args = append(args, "-trace", "1") // the cheapest replay
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v\n%s", w.name, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d metrics=%d\n%s",
			w.name, res.Correct, res.Attempted, res.Failed, len(res.Metrics), out.String())
	}
}
