package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestFieldsJSON: a payload encodes to the bytes encoding/json gives the
// same pairs as a map — sorted keys, HTML-escaped strings, the map's
// float formatting — whatever order it was built in, and decodes back
// into sorted key order.
func TestFieldsJSON(t *testing.T) {
	fs := Fields{
		{Key: "value", Value: 0.0000125},
		{Key: "outcome", Value: "a<b>&c"},
		{Key: "nodes", Value: int64(12)},
		{Key: "degraded", Value: true},
		{Key: "threshold", Value: 1e21},
		{Key: "member", Value: nil},
	}
	m := make(map[string]any, len(fs))
	for _, f := range fs {
		m[f.Key] = f.Value
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Fields encode to %s, map to %s", got, want)
	}
	if fs[0].Key != "value" {
		t.Fatal("MarshalJSON reordered the payload it was given")
	}

	var back Fields
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(back))
	for i, f := range back {
		keys[i] = f.Key
	}
	if want := []string{"degraded", "member", "nodes", "outcome", "threshold", "value"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("decoded keys = %v, want %v", keys, want)
	}
	if back.Get("nodes") != 12.0 || back.Get("outcome") != "a<b>&c" || back.Get("absent") != nil {
		t.Fatalf("Get on decoded fields = %v, %v, %v", back.Get("nodes"), back.Get("outcome"), back.Get("absent"))
	}

	// An absent or null payload stays nil, and a nil one is omitted.
	var ev Event
	if err := json.Unmarshal([]byte(`{"type":"heartbeat","fields":null}`), &ev); err != nil || ev.Fields != nil {
		t.Fatalf("null fields decode to %v (err %v)", ev.Fields, err)
	}
	if data, _ := json.Marshal(Event{Type: "heartbeat"}); string(data) != `{"seq":0,"time":"0001-01-01T00:00:00Z","type":"heartbeat"}` {
		t.Fatalf("event without fields = %s", data)
	}
}
