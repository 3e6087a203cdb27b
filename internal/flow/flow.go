// Package flow implements maximum flow on small directed networks
// (Edmonds–Karp) together with minimum s-t cut extraction and a bipartite
// minimum-vertex-cover routine via König's theorem. The resilience solver
// of package core uses it for the polynomial triad-free case of Freire et
// al. (Table II): for two-atom self-join-free queries, resilience is a
// minimum vertex cover of the bipartite join graph.
package flow

import (
	"errors"
	"fmt"
)

// Network is a directed flow network over integer node ids.
type Network struct {
	n int
	// adjacency as edge indexes.
	adj [][]int
	// edges in pairs: edge i and i^1 are a forward/backward pair.
	to  []int
	cap []int64
}

// NewNetwork creates a network with n nodes (0..n-1).
func NewNetwork(n int) *Network {
	return &Network{n: n, adj: make([][]int, n)}
}

// AddEdge adds a directed edge u→v with the given capacity and returns its
// edge index (the residual edge is created automatically).
func (g *Network) AddEdge(u, v int, capacity int64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("flow: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if capacity < 0 {
		return 0, errors.New("flow: negative capacity")
	}
	id := len(g.to)
	g.to = append(g.to, v)
	g.cap = append(g.cap, capacity)
	g.adj[u] = append(g.adj[u], id)
	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
	g.adj[v] = append(g.adj[v], id+1)
	return id, nil
}

// MaxFlow computes the maximum s-t flow with Edmonds–Karp, mutating the
// residual capacities.
func (g *Network) MaxFlow(s, t int) (int64, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("flow: terminal out of range")
	}
	if s == t {
		return 0, errors.New("flow: source equals sink")
	}
	var total int64
	for {
		// BFS for a shortest augmenting path.
		prevEdge := make([]int, g.n)
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		prevEdge[s] = -2
		queue := []int{s}
		for len(queue) > 0 && prevEdge[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for _, ei := range g.adj[u] {
				v := g.to[ei]
				if prevEdge[v] == -1 && g.cap[ei] > 0 {
					prevEdge[v] = ei
					queue = append(queue, v)
				}
			}
		}
		if prevEdge[t] == -1 {
			return total, nil
		}
		// Find bottleneck.
		var bottleneck int64 = 1 << 62
		for v := t; v != s; {
			ei := prevEdge[v]
			if g.cap[ei] < bottleneck {
				bottleneck = g.cap[ei]
			}
			v = g.to[ei^1]
		}
		for v := t; v != s; {
			ei := prevEdge[v]
			g.cap[ei] -= bottleneck
			g.cap[ei^1] += bottleneck
			v = g.to[ei^1]
		}
		total += bottleneck
	}
}

// MinCutSide returns the set of nodes reachable from s in the residual
// network; call after MaxFlow. Edges from the set to its complement form a
// minimum cut.
func (g *Network) MinCutSide(s int) map[int]bool {
	side := map[int]bool{s: true}
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range g.adj[u] {
			v := g.to[ei]
			if g.cap[ei] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

// BipartiteVertexCover computes a minimum vertex cover of a bipartite
// graph with left nodes 0..nLeft-1 and right nodes 0..nRight-1 and the
// given edges, via max-flow and König's theorem. It returns the chosen
// left and right nodes.
func BipartiteVertexCover(nLeft, nRight int, edges [][2]int) (left, right []int, err error) {
	// Nodes: 0 = source, 1..nLeft = left, nLeft+1..nLeft+nRight = right,
	// last = sink.
	s := 0
	t := nLeft + nRight + 1
	g := NewNetwork(t + 1)
	for l := 0; l < nLeft; l++ {
		if _, err := g.AddEdge(s, 1+l, 1); err != nil {
			return nil, nil, err
		}
	}
	for r := 0; r < nRight; r++ {
		if _, err := g.AddEdge(1+nLeft+r, t, 1); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range edges {
		l, r := e[0], e[1]
		if l < 0 || l >= nLeft || r < 0 || r >= nRight {
			return nil, nil, fmt.Errorf("flow: edge (%d,%d) out of bipartite range", l, r)
		}
		if _, err := g.AddEdge(1+l, 1+nLeft+r, 1); err != nil {
			return nil, nil, err
		}
	}
	if _, err := g.MaxFlow(s, t); err != nil {
		return nil, nil, err
	}
	// König: cover = left nodes NOT reachable from s in the residual
	// graph + right nodes reachable.
	side := g.MinCutSide(s)
	for l := 0; l < nLeft; l++ {
		if !side[1+l] {
			left = append(left, l)
		}
	}
	for r := 0; r < nRight; r++ {
		if side[1+nLeft+r] {
			right = append(right, r)
		}
	}
	return left, right, nil
}
