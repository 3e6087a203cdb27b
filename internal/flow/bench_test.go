package flow

import (
	"math/rand"
	"testing"
)

// BenchmarkMaxFlow measures Edmonds–Karp on a layered random network.
func BenchmarkMaxFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	build := func() *Network {
		// 3 layers of 30 nodes between s and t.
		const layer = 30
		g := NewNetwork(2 + 3*layer)
		s, t := 0, 1+3*layer
		for i := 0; i < layer; i++ {
			_, _ = g.AddEdge(s, 1+i, int64(1+rng.Intn(5)))
			_, _ = g.AddEdge(1+2*layer+i, t, int64(1+rng.Intn(5)))
		}
		for l := 0; l < 2; l++ {
			for i := 0; i < layer; i++ {
				for j := 0; j < layer; j++ {
					if rng.Intn(6) == 0 {
						_, _ = g.AddEdge(1+l*layer+i, 1+(l+1)*layer+j, int64(1+rng.Intn(3)))
					}
				}
			}
		}
		return g
	}
	nets := make([]*Network, b.N)
	for i := range nets {
		nets[i] = build()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nets[i].MaxFlow(0, nets[i].n-1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBipartiteVertexCover measures the König routine.
func BenchmarkBipartiteVertexCover(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var edges [][2]int
	for l := 0; l < 40; l++ {
		for r := 0; r < 40; r++ {
			if rng.Intn(5) == 0 {
				edges = append(edges, [2]int{l, r})
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := BipartiteVertexCover(40, 40, edges); err != nil {
			b.Fatal(err)
		}
	}
}
