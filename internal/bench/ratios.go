package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
	"delprop/internal/reduction"
	"delprop/internal/setcover"
	"delprop/internal/workload"
)

// ratioStats aggregates measured approximation ratios over seeds.
type ratioStats struct {
	n        int
	sum, max float64
	zeroOpt  int // instances with optimum 0 (ratio undefined)
	zeroBoth int // ... where the approximation also found 0
}

func (r *ratioStats) add(approx, opt float64) {
	if opt <= 0 {
		r.zeroOpt++
		if approx <= 0 {
			r.zeroBoth++
		}
		return
	}
	ratio := approx / opt
	r.n++
	r.sum += ratio
	if ratio > r.max {
		r.max = ratio
	}
}

func (r *ratioStats) mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.sum / float64(r.n)
}

func fmtF(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// starProblem builds one star-workload problem with a sampled deletion.
func starProblem(seed int64, relations, queries, atoms, rows, nDel int) (*core.Problem, error) {
	w := workload.Star(workload.StarConfig{
		Seed: seed, Relations: relations, HubValues: 3,
		RowsPerRelation: rows, Queries: queries, AtomsPerQuery: atoms,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		return nil, err
	}
	return p.Specialize(workload.SampleDeletion(p.Views, nDel, seed+1000))
}

func chainProblem(seed int64, length, queries, span, rows, nDel int) (*core.Problem, error) {
	w := workload.Chain(workload.ChainConfig{
		Seed: seed, Length: length, Domain: 3,
		RowsPerRelation: rows, Queries: queries, MaxSpan: span,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		return nil, err
	}
	return p.Specialize(workload.SampleDeletion(p.Views, nDel, seed+1000))
}

// runClaim1: measured ratio of the red-blue solver against the exact
// optimum on general (star) multi-query workloads, against the Claim 1
// bound 2√(l·‖V‖·log‖ΔV‖).
func runClaim1(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Claim 1: red-blue solver vs optimum on general star workloads",
		Headers: []string{"queries", "‖V‖ (avg)", "‖ΔV‖", "mean ratio", "max ratio", "bound 2√(l‖V‖log‖ΔV‖)", "zero-opt matched"},
	}
	for _, m := range []int{2, 3, 4} {
		for _, nDel := range []int{2, 4} {
			stats := &ratioStats{}
			sumV, sumBound := 0.0, 0.0
			cnt := 0
			for seed := int64(1); seed <= 10; seed++ {
				p, err := starProblem(seed, 4, m, 2, 5, nDel)
				if err != nil {
					return err
				}
				if p.DeltaLen() == 0 {
					continue
				}
				approx, err := recordedSolve(rec, &core.RedBlue{}, p)
				if err != nil {
					return err
				}
				opt, err := recordedSolve(rec, &core.RedBlueExact{}, p)
				if err != nil {
					return err
				}
				a := p.Evaluate(approx).SideEffect
				o := p.Evaluate(opt).SideEffect
				stats.add(a, o)
				l := float64(p.MaxArity())
				V := float64(p.TotalViewSize())
				dV := float64(p.DeltaLen())
				bound := 2 * math.Sqrt(l*V*math.Log(dV+1))
				rec.Quality(benchkit.NewQuality(
					fmt.Sprintf("m=%d ndel=%d seed=%d", m, nDel, seed), "red-blue", a, o, bound))
				sumV += V
				sumBound += bound
				cnt++
			}
			if cnt == 0 {
				continue
			}
			t.Add(fmt.Sprint(m), fmt.Sprintf("%.1f", sumV/float64(cnt)), fmt.Sprint(nDel),
				fmtF(stats.mean()), fmtF(stats.max), fmt.Sprintf("%.1f", sumBound/float64(cnt)),
				fmt.Sprintf("%d/%d", stats.zeroBoth, stats.zeroOpt))
		}
	}
	t.Fprint(w)
	return nil
}

// runLemma1: balanced solver vs balanced optimum on star workloads.
func runLemma1(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Lemma 1: balanced red-blue solver vs balanced optimum",
		Headers: []string{"queries", "‖ΔV‖", "mean ratio", "max ratio", "bound 2√(l(‖V‖+‖ΔV‖)log‖ΔV‖)", "zero-opt matched"},
	}
	for _, m := range []int{2, 3} {
		for _, nDel := range []int{2, 4} {
			stats := &ratioStats{}
			sumBound := 0.0
			cnt := 0
			for seed := int64(1); seed <= 10; seed++ {
				p, err := starProblem(seed, 4, m, 2, 5, nDel)
				if err != nil {
					return err
				}
				if p.DeltaLen() == 0 {
					continue
				}
				approx, err := recordedSolve(rec, &core.BalancedRedBlue{}, p)
				if err != nil {
					return err
				}
				opt, err := recordedSolve(rec, &core.BalancedRedBlue{Exact: true}, p)
				if err != nil {
					return err
				}
				a := p.Evaluate(approx).Balanced
				o := p.Evaluate(opt).Balanced
				stats.add(a, o)
				l := float64(p.MaxArity())
				V := float64(p.TotalViewSize())
				dV := float64(p.DeltaLen())
				bound := 2 * math.Sqrt(l*(V+dV)*math.Log(dV+1))
				rec.Quality(benchkit.NewQuality(
					fmt.Sprintf("m=%d ndel=%d seed=%d", m, nDel, seed), "balanced-red-blue", a, o, bound))
				sumBound += bound
				cnt++
			}
			if cnt == 0 {
				continue
			}
			t.Add(fmt.Sprint(m), fmt.Sprint(nDel), fmtF(stats.mean()), fmtF(stats.max),
				fmt.Sprintf("%.1f", sumBound/float64(cnt)),
				fmt.Sprintf("%d/%d", stats.zeroBoth, stats.zeroOpt))
		}
	}
	t.Fprint(w)
	return nil
}

// runThm3: primal-dual ratio vs the factor-l guarantee on forest (chain)
// workloads.
func runThm3(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Theorem 3: primal-dual vs optimum on forest (chain) workloads",
		Headers: []string{"chain len", "max span", "l (avg)", "mean ratio", "max ratio", "violations of l-bound"},
	}
	for _, length := range []int{3, 4, 5} {
		for _, span := range []int{2, 3} {
			stats := &ratioStats{}
			sumL := 0.0
			cnt, viol := 0, 0
			for seed := int64(1); seed <= 12; seed++ {
				p, err := chainProblem(seed, length, 3, span, 5, 3)
				if err != nil {
					return err
				}
				if p.DeltaLen() == 0 {
					continue
				}
				approx, err := recordedSolve(rec, &core.PrimalDual{}, p)
				if err != nil {
					return err
				}
				opt, err := recordedSolve(rec, &core.RedBlueExact{}, p)
				if err != nil {
					return err
				}
				a := p.Evaluate(approx).SideEffect
				o := p.Evaluate(opt).SideEffect
				stats.add(a, o)
				l := float64(p.MaxArity())
				rec.Quality(benchkit.NewQuality(
					fmt.Sprintf("len=%d span=%d seed=%d", length, span, seed), "primal-dual", a, o, l))
				sumL += l
				cnt++
				if o > 0 && a > l*o+1e-9 {
					viol++
				}
			}
			if cnt == 0 {
				continue
			}
			t.Add(fmt.Sprint(length), fmt.Sprint(span), fmt.Sprintf("%.1f", sumL/float64(cnt)),
				fmtF(stats.mean()), fmtF(stats.max), fmt.Sprint(viol))
		}
	}
	t.Fprint(w)
	return nil
}

// runThm4: low-degree sweep ratio vs the 2√‖V‖ guarantee.
func runThm4(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Theorem 4: low-degree sweep vs optimum on forest (chain) workloads",
		Headers: []string{"chain len", "‖V‖ (avg)", "mean ratio", "max ratio", "bound 2√‖V‖ (avg)", "violations"},
	}
	for _, length := range []int{3, 4, 5} {
		stats := &ratioStats{}
		sumV := 0.0
		cnt, viol := 0, 0
		for seed := int64(1); seed <= 12; seed++ {
			p, err := chainProblem(seed, length, 3, 3, 5, 3)
			if err != nil {
				return err
			}
			if p.DeltaLen() == 0 {
				continue
			}
			approx, err := recordedSolve(rec, &core.LowDegTreeTwo{}, p)
			if err != nil {
				return err
			}
			opt, err := recordedSolve(rec, &core.RedBlueExact{}, p)
			if err != nil {
				return err
			}
			a := p.Evaluate(approx).SideEffect
			o := p.Evaluate(opt).SideEffect
			stats.add(a, o)
			V := float64(p.TotalViewSize())
			rec.Quality(benchkit.NewQuality(
				fmt.Sprintf("len=%d seed=%d", length, seed), "low-deg-two", a, o, 2*math.Sqrt(V)))
			sumV += V
			cnt++
			if o > 0 && a > 2*math.Sqrt(V)*o+1e-9 {
				viol++
			}
		}
		if cnt == 0 {
			continue
		}
		t.Add(fmt.Sprint(length), fmt.Sprintf("%.1f", sumV/float64(cnt)),
			fmtF(stats.mean()), fmtF(stats.max),
			fmt.Sprintf("%.1f", 2*math.Sqrt(sumV/float64(cnt))), fmt.Sprint(viol))
	}
	t.Fprint(w)
	return nil
}

// runDPTree: Algorithm 4 exactness against brute force and its polynomial
// runtime scaling (Proposition 1).
func runDPTree(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Algorithm 4: DP exactness on pivot workloads",
		Headers: []string{"roots", "|D|", "‖V‖", "DP == optimum", "DP time", "brute time"},
	}
	for _, roots := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			w2 := workload.Pivot(workload.PivotConfig{Seed: seed, Roots: roots, ChildrenPerRoot: 3, GrandPerChild: 2})
			p, err := core.NewProblem(w2.DB, w2.Queries, nil)
			if err != nil {
				return err
			}
			if p, err = p.Specialize(workload.SampleDeletion(p.Views, 3, seed+99)); err != nil {
				return err
			}
			if p.DeltaLen() == 0 {
				continue
			}
			t0 := time.Now()
			dp, err := recordedSolve(rec, &core.DPTree{}, p)
			if err != nil {
				return err
			}
			dpTime := time.Since(t0)
			t0 = time.Now()
			bf, err := recordedSolve(rec, &core.BruteForce{}, p)
			if err != nil {
				return err
			}
			bfTime := time.Since(t0)
			dpSE := p.Evaluate(dp).SideEffect
			bfSE := p.Evaluate(bf).SideEffect
			match := dpSE == bfSE
			// Proposition 1 claims exactness: the DP must match the brute
			// optimum, i.e. guarantee 1.
			rec.Quality(benchkit.NewQuality(
				fmt.Sprintf("roots=%d seed=%d", roots, seed), "dp-tree", dpSE, bfSE, 1))
			t.Add(fmt.Sprint(roots), fmt.Sprint(p.DB.Size()), fmt.Sprint(p.TotalViewSize()),
				fmt.Sprint(match), dpTime.String(), bfTime.String())
		}
	}
	t.Fprint(w)

	// Runtime scaling: DP time as the forest grows (Proposition 1:
	// polynomial).
	t2 := &Table{
		Title:   "Proposition 1: DP runtime scaling",
		Headers: []string{"roots", "|D|", "‖V‖", "‖ΔV‖", "DP time"},
	}
	var sizes, times []float64
	for _, roots := range []int{10, 20, 40, 80, 160} {
		w2 := workload.Pivot(workload.PivotConfig{Seed: 7, Roots: roots, ChildrenPerRoot: 4, GrandPerChild: 3})
		p, err := core.NewProblem(w2.DB, w2.Queries, nil)
		if err != nil {
			return err
		}
		if p, err = p.Specialize(workload.SampleDeletion(p.Views, roots, 7)); err != nil {
			return err
		}
		// Median of three runs to damp scheduler noise.
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := (&core.DPTree{}).Solve(context.Background(), p); err != nil {
				return err
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		sizes = append(sizes, float64(p.DB.Size()))
		times = append(times, float64(best.Nanoseconds()))
		t2.Add(fmt.Sprint(roots), fmt.Sprint(p.DB.Size()), fmt.Sprint(p.TotalViewSize()),
			fmt.Sprint(p.DeltaLen()), best.String())
	}
	t2.Fprint(w)
	if k, r2, err := FitPowerLaw(sizes, times); err == nil {
		fmt.Fprintf(w, "empirical runtime exponent: time ~ |D|^%.2f (R²=%.3f); Proposition 1 claims polynomial — any small constant exponent confirms it\n\n", k, r2)
	}
	return nil
}

// timedSolve runs one solver with search-progress instrumentation and
// renders wall-clock plus the counters that explain it (n=nodes expanded,
// p=branches pruned, i=incumbent updates, r=restarts) — the same numbers
// the server exports on /metrics, so bench rows and production dashboards
// are directly comparable. The counters also feed rec, so they land in
// BENCH_*.json captures.
func timedSolve(rec *benchkit.Recorder, s core.Solver, p *core.Problem) string {
	ctx, st := core.WithStats(context.Background())
	t0 := time.Now()
	if _, err := s.Solve(ctx, p); err != nil {
		return "err: " + err.Error()
	}
	dur := time.Since(t0)
	snap := st.Snapshot()
	rec.AddSearch(searchCounters(snap))
	return fmt.Sprintf("%v [n=%d p=%d i=%d r=%d]",
		dur, snap.NodesExpanded, snap.BranchesPruned, snap.IncumbentUpdates, snap.Restarts)
}

// runScalability: wall-clock of every solver across growing databases.
func runScalability(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Scalability: solver wall-clock vs database size (star workloads)",
		Headers: []string{"rows/rel", "|D|", "‖V‖", "greedy", "red-blue", "primal-dual", "low-deg-two"},
	}
	for _, rows := range []int{10, 20, 40} {
		w2 := workload.Star(workload.StarConfig{
			Seed: 5, Relations: 4, HubValues: 4, RowsPerRelation: rows,
			Queries: 3, AtomsPerQuery: 2,
		})
		p, err := core.NewProblem(w2.DB, w2.Queries, nil)
		if err != nil {
			return err
		}
		if p, err = p.Specialize(workload.SampleDeletion(p.Views, 5, 55)); err != nil {
			return err
		}
		if p.DeltaLen() == 0 {
			continue
		}
		times := make([]string, 0, 4)
		for _, s := range core.ApproxSolvers() {
			times = append(times, timedSolve(rec, s, p))
		}
		t.Add(fmt.Sprint(rows), fmt.Sprint(p.DB.Size()), fmt.Sprint(p.TotalViewSize()),
			times[0], times[1], times[2], times[3])
	}
	t.Fprint(w)

	// Second sweep: number of queries m (the multi-query dimension the
	// paper adds over prior work).
	t2 := &Table{
		Title:   "Scalability: solver wall-clock vs number of queries m",
		Headers: []string{"m", "‖V‖", "greedy", "red-blue", "primal-dual", "low-deg-two"},
	}
	for _, m := range []int{2, 4, 8} {
		w2 := workload.Star(workload.StarConfig{
			Seed: 5, Relations: 6, HubValues: 4, RowsPerRelation: 15,
			Queries: m, AtomsPerQuery: 2,
		})
		p, err := core.NewProblem(w2.DB, w2.Queries, nil)
		if err != nil {
			return err
		}
		if p, err = p.Specialize(workload.SampleDeletion(p.Views, 5, 55)); err != nil {
			return err
		}
		if p.DeltaLen() == 0 {
			continue
		}
		times := make([]string, 0, 4)
		for _, s := range core.ApproxSolvers() {
			times = append(times, timedSolve(rec, s, p))
		}
		t2.Add(fmt.Sprint(m), fmt.Sprint(p.TotalViewSize()), times[0], times[1], times[2], times[3])
	}
	t2.Fprint(w)

	// Third sweep: deletion-request size ‖ΔV‖.
	t3 := &Table{
		Title:   "Scalability: solver wall-clock vs ‖ΔV‖",
		Headers: []string{"‖ΔV‖", "greedy", "red-blue", "primal-dual", "low-deg-two"},
	}
	for _, nDel := range []int{2, 8, 32} {
		w2 := workload.Star(workload.StarConfig{
			Seed: 5, Relations: 4, HubValues: 4, RowsPerRelation: 20,
			Queries: 3, AtomsPerQuery: 2,
		})
		p, err := core.NewProblem(w2.DB, w2.Queries, nil)
		if err != nil {
			return err
		}
		if p, err = p.Specialize(workload.SampleDeletion(p.Views, nDel, 55)); err != nil {
			return err
		}
		if p.DeltaLen() == 0 {
			continue
		}
		times := make([]string, 0, 4)
		for _, s := range core.ApproxSolvers() {
			times = append(times, timedSolve(rec, s, p))
		}
		t3.Add(fmt.Sprint(p.DeltaLen()), times[0], times[1], times[2], times[3])
	}
	t3.Fprint(w)
	return nil
}

// runHardnessGap: on Theorem 1 reduction instances built from random RBSC
// inputs, show the approximation gap the inapproximability predicts room
// for — measured ratio of the polynomial solver against the optimum as the
// instance grows.
func runHardnessGap(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "Theorems 1–2: approximation gap on reduction-generated instances",
		Headers: []string{"sets", "reds", "blues", "mean ratio", "max ratio", "zero-opt matched"},
	}
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{4, 6, 8} {
		stats := &ratioStats{}
		for trial := 0; trial < 8; trial++ {
			inst := &setcover.Instance{NumRed: size, NumBlue: size}
			for i := 0; i < size; i++ {
				var s setcover.Set
				for e := 0; e < size; e++ {
					if rng.Intn(3) == 0 {
						s.Reds = append(s.Reds, e)
					}
					if rng.Intn(3) == 0 {
						s.Blues = append(s.Blues, e)
					}
				}
				inst.Sets = append(inst.Sets, s)
			}
			for e := 0; e < size; e++ {
				inst.Sets[e%size].Blues = append(inst.Sets[e%size].Blues, e)
				inst.Sets[(e+1)%size].Reds = append(inst.Sets[(e+1)%size].Reds, e)
			}
			v, err := reduction.FromRedBlue(inst)
			if err != nil {
				return err
			}
			p := v.Problem
			approx, err := recordedSolve(rec, &core.RedBlue{}, p)
			if err != nil {
				return err
			}
			opt, err := recordedSolve(rec, &core.RedBlueExact{}, p)
			if err != nil {
				return err
			}
			a := p.Evaluate(approx).SideEffect
			o := p.Evaluate(opt).SideEffect
			stats.add(a, o)
			// Theorems 1–2 predict room for a gap here, so the record
			// carries no guarantee (0): the ratio is observed, never gated.
			rec.Quality(benchkit.NewQuality(
				fmt.Sprintf("size=%d trial=%d", size, trial), "red-blue", a, o, 0))
		}
		t.Add(fmt.Sprint(size), fmt.Sprint(size), fmt.Sprint(size),
			fmtF(stats.mean()), fmtF(stats.max),
			fmt.Sprintf("%d/%d", stats.zeroBoth, stats.zeroOpt))
	}
	t.Fprint(w)
	return nil
}
