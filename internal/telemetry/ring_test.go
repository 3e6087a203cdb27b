package telemetry

import (
	"reflect"
	"testing"
)

// TestRingDropOldest: a full ring evicts its oldest element and reports
// it; iteration stays oldest first across the wrap.
func TestRingDropOldest(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 5; i++ {
		if evicted := r.Push(i); evicted != (i > 3) {
			t.Fatalf("Push(%d) evicted = %v", i, evicted)
		}
	}
	if r.Len() != 3 || !reflect.DeepEqual(r.Slice(), []int{3, 4, 5}) {
		t.Fatalf("ring = %v (len %d), want [3 4 5]", r.Slice(), r.Len())
	}
	if r.At(0) != 3 || r.At(2) != 5 {
		t.Fatalf("At = %d..%d, want 3..5", r.At(0), r.At(2))
	}
}

// TestRingDrainThenRefill: draining pops oldest first, and pushes after a
// partial drain keep FIFO order, including when the ring grows while its
// contents are wrapped.
func TestRingDrainThenRefill(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1)
	r.Push(2)
	if got := r.Drain(1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Drain(1) = %v", got)
	}
	// 3 wraps into the slot 1 vacated; 4 and 5 grow the wrapped storage.
	for i := 3; i <= 5; i++ {
		r.Push(i)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("after refill = %v, want [2 3 4 5]", got)
	}
	r.Push(6)
	if got := r.Drain(0); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("Drain(0) = %v, want [3 4 5 6]", got)
	}
	if r.Len() != 0 || r.Drain(0) != nil {
		t.Fatal("drained ring not empty")
	}
	if z := NewRing[string](0); z.Push("a") || z.Push("b") != true || z.Slice()[0] != "b" {
		t.Fatal("capacity < 1 does not hold one element")
	}
}
