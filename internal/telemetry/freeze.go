package telemetry

import (
	"encoding/binary"
	"math"
	"time"

	"delprop/internal/relation"
)

// A finished trace is immutable, and the tracer keeps the last
// DefaultTraceBuffer of them for /debug/traces and postmortems, so
// Finish freezes each into one string: the trace's duration, then its
// attributes, spans and events, as varints and strings.
//
//   - A string is written once per trace. Its first occurrence is a 0,
//     its length and its bytes; a later one is the index, from 1, of
//     that first occurrence.
//   - A span is its name and the monotonic offset and duration render
//     computes from it, in nanoseconds.
//   - An event starts with a flags byte, then its Seq as a delta from
//     the previous event's and its wall clock as a UnixNano delta from
//     the previous event's, or the first from the trace's start (the
//     JSON form carries no monotonic reading). Its correlation fields
//     are written only when they differ from the previous event's, and
//     each Fields value as a kind byte and its payload, so the value
//     keeps its Go type.
//
// thaw decodes the block back into a traceState. An event whose Fields
// hold another Go type, or whose time has a location other than Local
// or UTC, cannot be frozen: its trace keeps the mutable form.

// Event flags: which correlation fields change, and how the time is
// written.
const (
	evRequestID = 1 << iota
	evTraceID
	evTenant
	evSolver
	evTimeZero
	evTimeUTC
)

// The kinds of a frozen Fields value.
const (
	kindNil byte = iota
	kindFalse
	kindTrue
	kindInt
	kindInt64
	kindFloat64
	kindString
)

// traceEncoder appends a frozen trace to buf. Its methods take and
// return it by value, so freeze's buffers can stay on its stack.
type traceEncoder struct {
	buf  []byte
	strs []string // the strings written so far, in order
	// index finds a string in strs by its hash, so that a string costs
	// one lookup rather than a scan of the strings written before it.
	index *relation.Table
}

func (e traceEncoder) byte(b byte) traceEncoder {
	e.buf = append(e.buf, b)
	return e
}

func (e traceEncoder) uvarint(x uint64) traceEncoder {
	e.buf = binary.AppendUvarint(e.buf, x)
	return e
}

func (e traceEncoder) varint(x int64) traceEncoder {
	e.buf = binary.AppendVarint(e.buf, x)
	return e
}

func (e traceEncoder) str(s string) traceEncoder {
	h := strHash(s)
	i, slot := e.index.Find(h, func(i int32) bool { return e.strs[i] == s })
	if i >= 0 {
		return e.uvarint(uint64(i + 1))
	}
	e.strs = append(e.strs, s)
	e.index.Insert(slot, int32(len(e.strs)-1), h, func(i int32) uint64 { return strHash(e.strs[i]) })
	e.buf = binary.AppendUvarint(append(e.buf, 0), uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// strHash hashes s for traceEncoder's index.
func strHash(s string) uint64 { return relation.Tuple{relation.Value(s)}.Hash() }

// value writes one Fields value; it reports false for a type the block
// has no kind for.
func (e traceEncoder) value(v any) (traceEncoder, bool) {
	switch v := v.(type) {
	case nil:
		return e.byte(kindNil), true
	case bool:
		if v {
			return e.byte(kindTrue), true
		}
		return e.byte(kindFalse), true
	case int:
		return e.byte(kindInt).varint(int64(v)), true
	case int64:
		return e.byte(kindInt64).varint(v), true
	case float64:
		e = e.byte(kindFloat64)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
		return e, true
	case string:
		return e.byte(kindString).str(v), true
	}
	return e, false
}

// freeze encodes a closed trace that began at start. It reports false
// when an event holds what the block cannot encode.
func (st *traceState) freeze(start time.Time) (string, bool) {
	var buf [1024]byte
	var strs [48]string
	var index relation.Table
	e := traceEncoder{buf: buf[:0], strs: strs[:0], index: &index}
	e = e.varint(int64(st.end.Sub(start))).uvarint(uint64(len(st.attrs)))
	for _, a := range st.attrs {
		e = e.str(a.key).str(a.value)
	}
	e = e.uvarint(uint64(len(st.spans)))
	for _, s := range st.spans {
		e = e.str(s.name).varint(int64(s.start.Sub(start))).varint(int64(s.end.Sub(s.start)))
	}
	e = e.uvarint(uint64(st.events.Len()))
	var prev Event
	wall := start.UnixNano()
	for i := range st.events.Len() {
		ev := st.events.At(i)
		var flags byte
		if ev.RequestID != prev.RequestID {
			flags |= evRequestID
		}
		if ev.TraceID != prev.TraceID {
			flags |= evTraceID
		}
		if ev.Tenant != prev.Tenant {
			flags |= evTenant
		}
		if ev.Solver != prev.Solver {
			flags |= evSolver
		}
		var nanos int64
		if ev.Time.IsZero() {
			flags |= evTimeZero
		} else {
			switch loc := ev.Time.Location(); {
			case loc == time.UTC:
				flags |= evTimeUTC
			case loc != time.Local:
				return "", false
			}
			// UnixNano covers the years 1678 to 2262.
			if nanos = ev.Time.UnixNano(); !time.Unix(0, nanos).Equal(ev.Time) {
				return "", false
			}
		}
		e = e.byte(flags).varint(int64(ev.Seq - prev.Seq))
		if flags&evTimeZero == 0 {
			e = e.varint(nanos - wall)
			wall = nanos
		}
		e = e.str(ev.Type)
		if flags&evRequestID != 0 {
			e = e.str(ev.RequestID)
		}
		if flags&evTraceID != 0 {
			e = e.uvarint(ev.TraceID)
		}
		if flags&evTenant != 0 {
			e = e.str(ev.Tenant)
		}
		if flags&evSolver != 0 {
			e = e.str(ev.Solver)
		}
		if ev.Fields == nil {
			e = e.uvarint(0)
		} else {
			e = e.uvarint(uint64(len(ev.Fields)) + 1)
		}
		for _, f := range ev.Fields {
			var ok bool
			if e, ok = e.str(f.Key).value(f.Value); !ok {
				return "", false
			}
		}
		prev = ev
	}
	return string(e.buf), true
}

// traceDecoder reads a frozen trace. The strings it returns are
// substrings of the block.
type traceDecoder struct {
	block string
	pos   int
	strs  []string
}

func (d *traceDecoder) byte() byte {
	b := d.block[d.pos]
	d.pos++
	return b
}

func (d *traceDecoder) uvarint() uint64 {
	var x uint64
	for shift := 0; ; shift += 7 {
		b := d.byte()
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x
		}
	}
}

// varint undoes binary.AppendVarint's zig-zag encoding.
func (d *traceDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *traceDecoder) str() string {
	if i := d.uvarint(); i > 0 {
		return d.strs[i-1]
	}
	n := int(d.uvarint())
	s := d.block[d.pos : d.pos+n]
	d.pos += n
	d.strs = append(d.strs, s)
	return s
}

func (d *traceDecoder) value() any {
	switch kind := d.byte(); kind {
	case kindFalse, kindTrue:
		return kind == kindTrue
	case kindInt:
		return int(d.varint())
	case kindInt64:
		return d.varint()
	case kindFloat64:
		bits := binary.LittleEndian.Uint64([]byte(d.block[d.pos : d.pos+8]))
		d.pos += 8
		return math.Float64frombits(bits)
	case kindString:
		return d.str()
	}
	return nil
}

// thaw decodes the block freeze made from a trace that began at start.
func thaw(block string, start time.Time) *traceState {
	d := traceDecoder{block: block}
	st := &traceState{end: start.Add(time.Duration(d.varint()))}
	st.attrs = make([]attr, d.uvarint())
	for i := range st.attrs {
		st.attrs[i].key = d.str()
		st.attrs[i].value = d.str()
	}
	st.spans = make([]span, d.uvarint())
	for i := range st.spans {
		s := &st.spans[i]
		s.name = d.str()
		s.start = start.Add(time.Duration(d.varint()))
		s.end = s.start.Add(time.Duration(d.varint()))
	}
	events := make([]Event, d.uvarint())
	var prev Event
	wall := start.UnixNano()
	for i := range events {
		ev := &events[i]
		flags := d.byte()
		ev.Seq = prev.Seq + uint64(d.varint())
		if flags&evTimeZero == 0 {
			wall += d.varint()
			ev.Time = time.Unix(0, wall)
			if flags&evTimeUTC != 0 {
				ev.Time = ev.Time.UTC()
			}
		}
		ev.Type = d.str()
		ev.RequestID, ev.TraceID, ev.Tenant, ev.Solver = prev.RequestID, prev.TraceID, prev.Tenant, prev.Solver
		if flags&evRequestID != 0 {
			ev.RequestID = d.str()
		}
		if flags&evTraceID != 0 {
			ev.TraceID = d.uvarint()
		}
		if flags&evTenant != 0 {
			ev.Tenant = d.str()
		}
		if flags&evSolver != 0 {
			ev.Solver = d.str()
		}
		if n := d.uvarint(); n > 0 {
			ev.Fields = make(Fields, n-1)
			for j := range ev.Fields {
				ev.Fields[j].Key = d.str()
				ev.Fields[j].Value = d.value()
			}
		}
		prev = *ev
	}
	st.events = Ring[Event]{buf: events, n: len(events), max: maxTraceEvents}
	return st
}
