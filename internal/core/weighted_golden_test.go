package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"delprop/internal/view"
	"delprop/internal/workload"
)

// randomWeights gives every preserved view tuple of p a non-integer
// weight in [0.5, 4.5), deterministically from the seed. Unlike integer
// weights, their sums depend on the order they are added in, so a
// solver that reorders a float sum shows up in the last bits.
func randomWeights(p *Problem, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	requested := view.NewDeletion(p.DeltaRefs()...)
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			ref := view.TupleRef{View: v.Index, Tuple: ans.Tuple}
			if !requested.Contains(ref) {
				p.SetWeight(ref, 0.5+4*rng.Float64())
			}
		}
	}
}

// goldenSolvers are the solvers testdata/weighted_solvers.golden pins;
// the key-preserving ones are skipped on bibliography-np.
func goldenSolvers() []Solver {
	return []Solver{
		&Greedy{}, &Greedy{Workers: 4}, &RedBlue{},
		&BalancedRedBlue{}, &BalancedRedBlue{Exact: true}, &LowDegTreeTwo{},
	}
}

// weightedGoldenRuns renders one line per (instance, weighting, solver):
// the deletion in the order the solver returned it, the side effect and
// lower bound as exact float bits, and the nodes the solver expanded.
func weightedGoldenRuns(t *testing.T) string {
	type inst struct {
		name string
		p    *Problem
	}
	var insts []inst
	for seed := int64(1); seed <= 3; seed++ {
		insts = append(insts,
			inst{fmt.Sprintf("star/%d", seed), starProblem(t, seed, 4)},
			inst{fmt.Sprintf("chain/%d", seed), chainProblem(t, seed, 4)},
			inst{fmt.Sprintf("pivot/%d", seed), pivotProblem(t, seed, 4)},
		)
	}
	np := warmNPProblem(t)
	insts = append(insts, inst{"bibliography-np", respecialize(t, np, workload.SampleDeletion(np.Views, 8, 1))})

	bits := func(f float64) string { return fmt.Sprintf("%v(%#016x)", f, math.Float64bits(f)) }
	var b strings.Builder
	for _, in := range insts {
		if in.p.DeltaLen() == 0 {
			continue
		}
		for _, weighting := range []string{"unit", "random"} {
			p := respecialize(t, in.p, view.NewDeletion(in.p.DeltaRefs()...))
			if weighting == "random" {
				randomWeights(p, 42)
			}
			for _, s := range goldenSolvers() {
				if !p.IsKeyPreserving() && s.Name() != "greedy" && s.Name() != "greedy-parallel" {
					continue
				}
				res, err := Run(context.Background(), s, p, 0, RunHooks{})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", in.name, weighting, s.Name(), err)
				}
				lb := "-"
				if res.LowerBound != nil {
					lb = bits(*res.LowerBound)
				}
				fmt.Fprintf(&b, "%s/%s %s: nodes=%d side=%s lb=%s deleted=%v\n", in.name, weighting, s.Name(),
					res.Stats.NodesExpanded, bits(res.Report.SideEffect), lb, res.Solution.Deleted)
			}
		}
	}
	return b.String()
}

// TestWeightedSolversGolden pins greedy, greedy-parallel, red-blue,
// balanced-red-blue, balanced-exact and low-deg on star, chain, pivot
// and bibliography-np instances, under unit and random non-integer
// weights, in testdata/weighted_solvers.golden: deletion order, side
// effect and lower bound bits, and nodes. TestGreedyIncrementalMatchesNaive
// cannot pin float bits under weights, since its oracle subtracts
// collateral totals; this golden does.
func TestWeightedSolversGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/weighted_solvers.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := weightedGoldenRuns(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
