// Package a exercises the mapdet analyzer: map iteration order must not
// leak into slices or output streams.
package a

import (
	"fmt"
	"io"
	"sort"
)

// Leak returns a slice in random map order.
func Leak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `out is appended to in map iteration order`
	}
	return out
}

// Sorted collects then sorts: ok.
func Sorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SliceSorted uses sort.Slice on a struct slice: ok.
func SliceSorted(m map[string]int) []kv {
	var out []kv
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

type kv struct {
	k string
	v int
}

type byKey []kv

func (b byKey) Len() int           { return len(b) }
func (b byKey) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
func (b byKey) Less(i, j int) bool { return b[i].k < b[j].k }

// ConvSorted sorts through a sort.Interface conversion: ok.
func ConvSorted(m map[string]int) []kv {
	var out []kv
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Sort(byKey(out))
	return out
}

// Emit writes during iteration.
func Emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `Fprintf called while ranging over a map emits output in random order`
	}
}

// EmitSorted iterates sorted keys: ok (the emitting range is over a
// slice, not a map).
func EmitSorted(w io.Writer, m map[string]int) {
	keys := Sorted(m)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// EmitWriter calls Write on an io.Writer implementation directly.
func EmitWriter(w io.Writer, m map[string][]byte) {
	for _, v := range m {
		w.Write(v) // want `Write called while ranging over a map emits output in random order`
	}
}

// tuple is a domain type whose Encode produces a string, not output.
type tuple struct{ vals []string }

func (t tuple) Encode() string {
	out := ""
	for _, v := range t.vals {
		out += "|" + v
	}
	return out
}

// EncodeTuples calls a domain Encode method: not an output sink, ok.
func EncodeTuples(m map[string]tuple) map[string]string {
	out := make(map[string]string, len(m))
	for k, t := range m {
		out[k] = t.Encode()
	}
	return out
}

// Tally accumulates a scalar: order-independent, ok.
func Tally(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Invert builds a map from a map: order-independent, ok.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// PerIteration appends to a slice scoped inside the loop body: ok.
func PerIteration(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// RangeSlice ranges over a slice: never flagged.
func RangeSlice(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// Justified keeps insertion order irrelevant and says why.
func Justified(m map[string]bool) []string {
	var out []string
	for k := range m {
		//lint:ignore mapdet out feeds a set-equality assertion; order is never observed
		out = append(out, k)
	}
	return out
}

type pick struct{ key string }

// ArgMin keeps the first strict minimum through loop-local variables:
// on a tie the pick follows map order. The cost itself is an extremum.
func ArgMin(m map[string]int, cost func(*pick) int) *pick {
	var best *pick
	bestCost := 0
	for k := range m {
		cand := &pick{key: k}
		c := cost(cand)
		if best == nil || c < bestCost {
			best, bestCost = cand, c // want `best is picked in map iteration order`
		}
	}
	return best
}

// ArgMaxKey picks a numeric key: not an extremum of what it compares.
func ArgMaxKey(m map[int]int) int {
	pickKey, hi := -1, 0
	for k, v := range m {
		if v > hi {
			hi = v
			pickKey = k // want `pickKey is picked in map iteration order`
		}
	}
	return pickKey
}

// First returns whichever element the map yields first.
func First(m map[string]int) string {
	for k := range m {
		return k // want `return inside a map range yields the first match`
	}
	return ""
}

// Counts increments per key: order-independent, ok.
func Counts(m map[string]int) map[string]int {
	counts := make(map[string]int)
	for k := range m {
		counts[k]++
	}
	return counts
}

// Seen marks keys in a set: order-independent, ok.
func Seen(m map[string]int) map[string]bool {
	seen := make(map[string]bool)
	for k := range m {
		seen[k] = true
	}
	return seen
}

// MaxValue accumulates the largest value: order-independent, ok.
func MaxValue(m map[string]int) int {
	hi := 0
	for _, v := range m {
		if v > hi {
			hi = v
		}
	}
	return hi
}

// MaxBuiltin accumulates through the max builtin: ok.
func MaxBuiltin(m map[string]float64) float64 {
	hi := 0.0
	for _, v := range m {
		hi = max(hi, v)
	}
	return hi
}

// Contains returns a constant on any match: order-independent, ok.
func Contains(m map[string]int, want int) bool {
	for _, v := range m {
		if v == want {
			return true
		}
	}
	return false
}

// Visit hands each entry to a callback whose return is not the loop's:
// ok.
func Visit(m map[string]int, visit func(func() string)) {
	for k := range m {
		visit(func() string { return k })
	}
}

// FloatSum adds float weights in map order: the sum's last bits vary.
func FloatSum(m map[string]float64) float64 {
	total := 0.0
	for _, w := range m {
		total += w // want `total sums floats in map iteration order`
	}
	return total
}

type weight float32

// FloatDebit subtracts a named float type in map order.
func FloatDebit(m map[int]weight, budget weight) weight {
	for _, w := range m {
		budget -= w // want `budget sums floats in map iteration order`
	}
	return budget
}

// IntSum adds integers: exact in any order, ok.
func IntSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// LocalFloat sums inside one iteration only: ok.
func LocalFloat(m map[string][]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, ws := range m {
		s := 0.0
		for _, w := range ws {
			s += w
		}
		out = append(out, s)
	}
	sort.Float64s(out)
	return out
}

// SliceFloatSum sums a slice in index order: ok.
func SliceFloatSum(ws []float64) float64 {
	total := 0.0
	for _, w := range ws {
		total += w
	}
	return total
}
