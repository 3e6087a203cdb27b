package setcover

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkLowDegSweep measures the Peleg-style sweep on a moderate
// instance.
func BenchmarkLowDegSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := randInstance(rng, 30, 30, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.LowDegSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSmall measures the branch-and-bound on a small instance.
func BenchmarkExactSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	inst := randInstance(rng, 8, 8, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Exact(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPNPSCReduction measures Miettinen's reduction construction.
func BenchmarkPNPSCReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := &PNPSCInstance{Inst: &Instance{NumBlue: 30, NumRed: 30}}
	for i := 0; i < 40; i++ {
		var s Set
		for e := 0; e < 30; e++ {
			if rng.Intn(4) == 0 {
				s.Blues = append(s.Blues, e)
			}
			if rng.Intn(4) == 0 {
				s.Reds = append(s.Reds, e)
			}
		}
		p.Inst.Sets = append(p.Inst.Sets, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ToRedBlue()
	}
}
