package benchkit

import (
	"bytes"
	"strings"
	"testing"
)

func sampleCapture() *Capture {
	c := NewCapture(3)
	c.Experiments = []ExperimentResult{
		{
			ID:       "E1",
			Artifact: "Table II",
			WallNs:   []float64{300, 100, 200},
			Search:   SearchCounters{NodesExpanded: 10, IncumbentUpdates: 2},
			Quality: []QualityRecord{
				NewQuality("seed=1", "red-blue", 4, 2, 3),
			},
		},
	}
	for i := range c.Experiments {
		c.Experiments[i].Summarize()
	}
	return c
}

func TestCaptureRoundTrip(t *testing.T) {
	c := sampleCapture()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 1`, `"wallNs"`, `"nodesExpanded"`, `"ratio"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("serialized capture missing %q:\n%s", want, buf.String())
		}
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "E1" {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Experiments[0].MedianNs != 200 {
		t.Errorf("median = %v, want 200", got.Experiments[0].MedianNs)
	}
}

func TestReadRejectsBadCaptures(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema": 99, "experiments": [{"id": "E1", "wallNs": [1]}]}`,
		"no experiment": `{"schema": 1, "experiments": []}`,
		"no id":         `{"schema": 1, "experiments": [{"wallNs": [1]}]}`,
		"no samples":    `{"schema": 1, "experiments": [{"id": "E1"}]}`,
		"bad sample":    `{"schema": 1, "experiments": [{"id": "E1", "wallNs": [-5]}]}`,
		"duplicate id":  `{"schema": 1, "experiments": [{"id": "E1", "wallNs": [1]}, {"id": "E1", "wallNs": [1]}]}`,
		"not json":      `nope`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
}

func TestSummary(t *testing.T) {
	min, median, p95 := Summary([]float64{5, 1, 3, 2, 4})
	if min != 1 || median != 3 || p95 != 5 {
		t.Errorf("summary = %v %v %v, want 1 3 5", min, median, p95)
	}
	min, median, p95 = Summary([]float64{4, 2})
	if min != 2 || median != 3 || p95 != 4 {
		t.Errorf("even summary = %v %v %v, want 2 3 4", min, median, p95)
	}
	if a, b, c := Summary(nil); a != 0 || b != 0 || c != 0 {
		t.Errorf("empty summary = %v %v %v", a, b, c)
	}
}

func TestNewQuality(t *testing.T) {
	q := NewQuality("c", "s", 6, 2, 4)
	if q.Ratio != 3 || q.Violated {
		t.Errorf("ratio 3 under guarantee 4 = %+v", q)
	}
	q = NewQuality("c", "s", 9, 2, 4)
	if q.Ratio != 4.5 || !q.Violated {
		t.Errorf("ratio 4.5 over guarantee 4 = %+v", q)
	}
	// Zero optimum: matched when the approximation also achieved 0.
	q = NewQuality("c", "s", 0, 0, 4)
	if !q.ZeroMatched || q.Violated || q.Ratio != 0 {
		t.Errorf("zero-opt matched = %+v", q)
	}
	// Exact solver (guarantee 1) on a zero-optimum instance must match.
	q = NewQuality("c", "exact", 2, 0, 1)
	if q.ZeroMatched || !q.Violated {
		t.Errorf("exact miss on zero-opt = %+v", q)
	}
	// No guarantee: never violated.
	q = NewQuality("c", "s", 100, 1, 0)
	if q.Violated {
		t.Errorf("guarantee-free record violated = %+v", q)
	}
}

func TestCaptureViolations(t *testing.T) {
	c := sampleCapture()
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("clean capture has violations: %+v", v)
	}
	c.Experiments[0].Quality = append(c.Experiments[0].Quality,
		NewQuality("seed=2", "red-blue", 10, 2, 3))
	v := c.Violations()
	if len(v) != 1 || v[0].Experiment != "E1" || v[0].Quality.Ratio != 5 {
		t.Fatalf("violations = %+v", v)
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *Recorder
	nilRec.Quality(NewQuality("c", "s", 1, 1, 1))
	nilRec.AddSearch(SearchCounters{NodesExpanded: 1})
	if s := nilRec.Search(); s != (SearchCounters{}) {
		t.Errorf("nil recorder search = %+v", s)
	}
	if q := nilRec.QualityRecords(); q != nil {
		t.Errorf("nil recorder quality = %+v", q)
	}

	rec := &Recorder{}
	rec.AddSearch(SearchCounters{NodesExpanded: 2, Restarts: 1})
	rec.AddSearch(SearchCounters{NodesExpanded: 3, BranchesPruned: 4})
	if s := rec.Search(); s.NodesExpanded != 5 || s.BranchesPruned != 4 || s.Restarts != 1 {
		t.Errorf("aggregated search = %+v", s)
	}
	rec.Quality(NewQuality("a", "s", 1, 1, 2))
	rec.Quality(NewQuality("b", "s", 9, 1, 2))
	if got := rec.QualityRecords(); len(got) != 2 || got[0].Violated || !got[1].Violated {
		t.Errorf("quality records = %+v, want only case b violated", got)
	}
}
