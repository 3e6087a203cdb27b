package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
// Candidates are scored against the incremental view maintainer with
// its read-only probe (view.Maintainer.AppendCuts): a round reads one
// maintainer state, and only the round's pick is applied to it.
//
// With Workers > 1 the per-round scoring loop — an embarrassingly
// parallel O(candidates × Δ) probe — shards the candidate list across
// that many goroutines, all reading the same maintainer. Shards are
// contiguous ascending index ranges, every worker keeps the lowest-index
// maximum of its shard, and the merge walks shards in ascending order
// taking strictly greater scores only, so the chosen candidate is the
// lowest-index maximum overall — exactly the serial pick. Each worker
// runs the identical floating-point computation on the same maintainer
// state, so scores are bit-equal to the serial ones and the returned
// solution is byte-identical to the serial solver's.
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

	nw := min(g.Workers, len(cands))
	taken := make([]bool, len(cands))
	scratch := make([]probeScratch, max(nw, 1)) // one per worker, kept across rounds
	round := &scoringRound{g: g, rq: rq, m: m, cands: cands, taken: taken, scratch: scratch}
	for {
		st.Checkpoint()
		if err := checkCtx(ctx, g.Name(), nil); err != nil {
			return nil, err
		}
		bad := aliveBad()
		if bad == 0 {
			break
		}
		round.baseDerivs = aliveDerivations(m, rq.delta)
		var best int
		var err error
		if nw > 1 {
			best, err = round.scoreParallel(ctx)
		} else {
			best, _, err = round.scoreRange(ctx, &scratch[0], 0, len(cands))
		}
		if err != nil {
			return nil, err
		}
		if best == -1 {
			return nil, fmt.Errorf("core: greedy stuck with %d requested view tuples alive", bad)
		}
		taken[best] = true
		m.Delete(cands[best])
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

// scoringRound is a greedy round's scoring state, read-only while the
// round's probes run: the maintainer state every probe reads, the
// candidates still to probe (taken is indexed like cands), each worker's
// probe buffers and the alive-derivation total the probes measure their
// cuts against.
type scoringRound struct {
	g          *Greedy
	rq         *requestRefs
	m          *view.Maintainer
	cands      []int32
	taken      []bool
	scratch    []probeScratch
	baseDerivs int
}

// dyingRef is a preserved view tuple a probed deletion would destroy: the
// rank of its TupleRef.Key and its weight.
type dyingRef struct {
	rank int32
	w    float64
}

// probeScratch is one worker's reusable probe buffers.
type probeScratch struct {
	cuts  []view.Cut
	dying []dyingRef
}

// probe scores deleting tuple t against the round's maintainer state:
// killed requested tuples, weighted collateral, and derivations cut
// (ok=false when the deletion cuts no requested derivation). Collateral
// weights are summed in TupleRef.Key order, the order Delete reports
// deaths in, so the score's floating-point bits do not depend on ref ids.
func (r *scoringRound) probe(sc *probeScratch, t int32) (score float64, ok bool) {
	sc.cuts = r.m.AppendCuts(sc.cuts[:0], t)
	sc.dying = sc.dying[:0]
	killed, cut := 0, 0
	for _, c := range sc.cuts {
		switch {
		case r.rq.requested(c.Ref):
			cut += int(c.Derivs)
			if c.Kills {
				killed++
			}
		case c.Kills:
			sc.dying = append(sc.dying, dyingRef{r.rq.x.RefRank(c.Ref), r.rq.weight(c.Ref)})
		}
	}
	if cut == 0 {
		return 0, false
	}
	slices.SortFunc(sc.dying, func(a, b dyingRef) int { return cmp.Compare(a.rank, b.rank) })
	extra := 0.0
	for _, d := range sc.dying {
		extra += d.w
	}
	return (float64(killed) + float64(cut)/float64(r.baseDerivs+1)) / (1 + extra), true
}

// scoreRange probes the untaken candidates with index in [lo, hi) using
// the buffers sc and returns the lowest-index maximum score (best = -1
// when no probe cuts anything), checkpointing every probeCheckEvery
// probes. Serial scoring is one range over every candidate.
func (r *scoringRound) scoreRange(ctx context.Context, sc *probeScratch, lo, hi int) (best int, bestScore float64, err error) {
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
		score, ok := r.probe(sc, r.cands[i])
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

// scoreParallel runs one scoring round sharded across one worker per
// probe buffer. Worker w scores the range shardBounds(len(cands), nw, w)
// with scratch[w]; the merge walks shards in ascending order keeping
// strictly greater scores, reproducing the serial lowest-index tie-break
// exactly.
func (r *scoringRound) scoreParallel(ctx context.Context) (best int, err error) {
	nw := len(r.scratch)
	type shardResult struct {
		idx   int
		score float64
		err   error
	}
	results := make([]shardResult, nw)
	var wg sync.WaitGroup
	for w := range nw {
		lo, hi := shardBounds(len(r.cands), nw, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			idx, score, err := r.scoreRange(ctx, &r.scratch[w], lo, hi)
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
