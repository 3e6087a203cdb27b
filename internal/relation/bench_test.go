package relation

import (
	"fmt"
	"testing"
)

func benchRelation(b *testing.B, n int) *Relation {
	b.Helper()
	r := NewRelation(MustSchema("T", []string{"a", "b", "c"}, []int{0}))
	for i := 0; i < n; i++ {
		if err := r.Insert(Tuple{
			Value(fmt.Sprintf("k%d", i)),
			Value(fmt.Sprintf("v%d", i%37)),
			Value(fmt.Sprintf("w%d", i%11)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkInsert measures keyed inserts including constraint checks.
func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
		b.StartTimer()
		for j := 0; j < 1000; j++ {
			if err := r.Insert(Tuple{Value(fmt.Sprintf("k%d", j)), "v"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncode measures the canonical tuple encoding.
func BenchmarkEncode(b *testing.B) {
	t := Tuple{"some", "tuple", "with", "five", "values"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Encode()
	}
}
