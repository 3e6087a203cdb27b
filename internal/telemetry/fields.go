package telemetry

import (
	"cmp"
	"encoding/json"
	"slices"
)

// Field is one key/value pair of an event payload. Values are
// JSON-encodable.
type Field struct {
	Key   string
	Value any
}

// Fields is an event's type-specific payload: an ordered key/value list
// with unique keys. Producers build it without a map; on the wire it is a
// JSON object with its keys in sorted order, the same bytes a
// map[string]any payload encodes to.
type Fields []Field

// Get returns the value stored under key, or nil when the key is absent.
func (fs Fields) Get(key string) any {
	for _, f := range fs {
		if f.Key == key {
			return f.Value
		}
	}
	return nil
}

func byKey(a, b Field) int { return cmp.Compare(a.Key, b.Key) }

// MarshalJSON encodes the payload as a JSON object with sorted keys
// (null for a nil payload), as encoding/json encodes a map.
func (fs Fields) MarshalJSON() ([]byte, error) {
	if fs == nil {
		return []byte("null"), nil
	}
	if !slices.IsSortedFunc(fs, byKey) {
		fs = slices.Clone(fs)
		slices.SortFunc(fs, byKey)
	}
	buf := []byte{'{'}
	for i, f := range fs {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(f.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.Value)
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, k...), ':'), v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes a JSON object into fields in sorted key order,
// with values as encoding/json decodes into any (numbers as float64).
func (fs *Fields) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*fs = nil
		return nil
	}
	out := make(Fields, 0, len(m))
	for k, v := range m {
		out = append(out, Field{Key: k, Value: v})
	}
	slices.SortFunc(out, byKey)
	*fs = out
	return nil
}
