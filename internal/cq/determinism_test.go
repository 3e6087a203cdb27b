package cq

import "testing"

// These tests pin down output determinism in code paths that iterate
// over maps; delproplint's mapdet analyzer enforces the invariant
// statically, and these assert the user-visible consequence.

// TestHomomorphismStringDeterministic asserts that Homomorphism.String
// lists variables in sorted order, independent of map iteration order.
func TestHomomorphismStringDeterministic(t *testing.T) {
	h := Homomorphism{
		"z": C("p"),
		"a": V("q"),
		"m": C("r"),
		"b": V("s"),
	}
	const want = "{a↦q, b↦s, m↦'r', z↦'p'}"
	for i := 0; i < 50; i++ {
		if got := h.String(); got != want {
			t.Fatalf("iteration %d: String() = %q, want %q", i, got, want)
		}
	}
}
