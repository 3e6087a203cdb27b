package core

import (
	"context"
	"fmt"
	"sync"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// probeCheckEvery bounds how many candidate probes a greedy scoring round
// runs between cooperative cancellation checkpoints. One round probes
// every remaining candidate, so on large instances a single round can run
// far past the deadline if the solver only polls between rounds; checking
// every few dozen probes keeps cancellation latency proportional to probe
// cost, not to the candidate count.
const probeCheckEvery = 64

// Greedy is the baseline heuristic: repeatedly delete the candidate tuple
// killing the most still-alive requested view tuples per unit of newly
// destroyed preserved weight, breaking ties by how many surviving
// derivations it cuts (so the search advances even when no single deletion
// kills a whole multi-derivation request). Feasible for arbitrary
// conjunctive queries (not only key-preserving), with no approximation
// guarantee.
//
// Candidates are scored with the incremental view maintainer (delete,
// inspect, undelete).
//
// With Workers > 1 the per-round scoring loop — an embarrassingly
// parallel O(candidates × Δ) probe — shards the candidate list across
// that many goroutines, each probing against its own view.Maintainer
// clone. Shards are contiguous ascending index ranges, every worker keeps
// the lowest-index maximum of its shard, and the merge walks shards in
// ascending order taking strictly greater scores only, so the chosen
// candidate is the lowest-index maximum overall — exactly the serial
// pick. Each worker runs the identical floating-point computation on
// identical maintainer state, so scores are bit-equal to the serial ones
// and the returned solution is byte-identical to the serial solver's.
type Greedy struct {
	// Workers is the number of concurrent scoring goroutines; values < 2
	// mean serial scoring.
	Workers int
}

// Name implements Solver.
func (g *Greedy) Name() string {
	if g.Workers > 1 {
		return "greedy-parallel"
	}
	return "greedy"
}

// Solve implements Solver. Greedy builds its solution constructively, so
// an interruption carries no incumbent: a partial greedy prefix is not
// feasible.
func (g *Greedy) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	rq := &p.rq
	cands := rq.cands
	m := rq.x.NewMaintainer()
	var chosen []relation.TupleID

	aliveBad := func() int {
		n := 0
		for _, r := range rq.delta {
			if m.Alive(r) {
				n++
			}
		}
		return n
	}

	// Per-worker maintainer clones for parallel scoring, kept in lockstep
	// with m by replaying every chosen deletion into each clone.
	nw := g.Workers
	if nw > len(cands) && len(cands) > 0 {
		nw = len(cands)
	}
	var clones []*view.Maintainer
	if nw > 1 {
		clones = make([]*view.Maintainer, nw)
		for w := range clones {
			clones[w] = m.Clone()
		}
	}

	taken := make([]bool, len(cands))
	for {
		st.Checkpoint()
		if err := checkCtx(ctx, g.Name(), nil); err != nil {
			return nil, err
		}
		bad := aliveBad()
		if bad == 0 {
			break
		}
		round := scoringRound{g: g, rq: rq, cands: cands, taken: taken, baseDerivs: aliveDerivations(m, rq.delta)}
		var best int
		var err error
		if nw > 1 {
			best, err = round.scoreParallel(ctx, clones)
		} else {
			best, _, err = round.scoreRange(ctx, m, 0, len(cands))
		}
		if err != nil {
			return nil, err
		}
		if best == -1 {
			return nil, fmt.Errorf("core: greedy stuck with %d requested view tuples alive", bad)
		}
		taken[best] = true
		m.Delete(cands[best])
		for _, c := range clones {
			c.Delete(cands[best])
		}
		chosen = append(chosen, rq.x.Tuple(cands[best]))
	}
	return &Solution{Deleted: chosen}, nil
}

// aliveDerivations sums the surviving derivations of the given refs.
func aliveDerivations(m *view.Maintainer, refs []int32) int {
	n := 0
	for _, r := range refs {
		n += m.AliveDerivations(r)
	}
	return n
}

// probeCandidate scores deleting tuple t against the maintainer state at
// the start of the round: killed requested tuples, weighted collateral,
// and derivations cut (ok=false when the probe cuts nothing). The probe
// is delete/inspect/undelete, so m is unchanged on return. Collateral
// weights are summed in the order Delete reports deaths, TupleRef.Key
// order, so the score's floating-point bits do not depend on ref ids.
func probeCandidate(rq *requestRefs, m *view.Maintainer, t int32, baseDerivs int) (score float64, ok bool) {
	died := m.Delete(t)
	killed := 0
	extra := 0.0
	for _, r := range died {
		if rq.requested(r) {
			killed++
		} else {
			extra += rq.weight(r)
		}
	}
	cut := baseDerivs - aliveDerivations(m, rq.delta)
	m.Undelete(t)
	if cut == 0 {
		return 0, false
	}
	return (float64(killed) + float64(cut)/float64(baseDerivs+1)) / (1 + extra), true
}

// scoringRound is one greedy round's read-only scoring state: the
// candidates still to probe (taken is indexed like cands) and the
// alive-derivation total the probes measure their cuts against.
type scoringRound struct {
	g          *Greedy
	rq         *requestRefs
	cands      []int32
	taken      []bool
	baseDerivs int
}

// scoreRange probes the untaken candidates with index in [lo, hi) against
// m and returns the lowest-index maximum score (best = -1 when no probe
// cuts anything), checkpointing every probeCheckEvery probes. Serial
// scoring is one range over every candidate.
func (r *scoringRound) scoreRange(ctx context.Context, m *view.Maintainer, lo, hi int) (best int, bestScore float64, err error) {
	st := StatsFrom(ctx)
	best, bestScore = -1, -1.0
	probes := 0
	for i := lo; i < hi; i++ {
		if r.taken[i] {
			continue
		}
		st.AddNodes(1)
		probes++
		if probes%probeCheckEvery == 0 {
			st.Checkpoint()
			if err := checkCtx(ctx, r.g.Name(), nil); err != nil {
				return -1, 0, err
			}
		}
		score, ok := probeCandidate(r.rq, m, r.cands[i], r.baseDerivs)
		if ok && score > bestScore {
			bestScore, best = score, i
		}
	}
	return best, bestScore, nil
}

// shardBounds splits n candidates into nw contiguous ascending ranges,
// sizes differing by at most one; returns worker w's [lo, hi).
func shardBounds(n, nw, w int) (lo, hi int) {
	base, rem := n/nw, n%nw
	lo = w * base
	if w < rem {
		lo += w
	} else {
		lo += rem
	}
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// scoreParallel runs one scoring round sharded across the worker clones.
// Worker w scores the range shardBounds(len(cands), len(clones), w)
// against clones[w]; the merge walks shards in ascending order keeping
// strictly greater scores, reproducing the serial lowest-index tie-break
// exactly.
func (r *scoringRound) scoreParallel(ctx context.Context, clones []*view.Maintainer) (best int, err error) {
	type shardResult struct {
		idx   int
		score float64
		err   error
	}
	results := make([]shardResult, len(clones))
	var wg sync.WaitGroup
	for w := range clones {
		lo, hi := shardBounds(len(r.cands), len(clones), w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			idx, score, err := r.scoreRange(ctx, clones[w], lo, hi)
			results[w] = shardResult{idx: idx, score: score, err: err}
		}(w, lo, hi)
	}
	wg.Wait()
	best, bestScore := -1, -1.0
	for _, res := range results {
		if res.err != nil {
			return -1, res.err
		}
		if res.idx >= 0 && res.score > bestScore {
			bestScore, best = res.score, res.idx
		}
	}
	return best, nil
}
