package core

import (
	"math"

	"delprop/internal/classify"
	"delprop/internal/cq"
)

// Guarantee returns the paper's bound on objective / optimum for answers
// of solver s on problem p, or 0 when the paper promises none there:
//
//   - 1 for the exact solvers (BruteForce, RedBlueExact, the exact
//     BalancedRedBlue, DPTree, SingleTupleExact, Unidimensional);
//   - Claim 1's 2√(l·‖V‖·log‖ΔV‖) for RedBlue and Lemma 1's
//     2√(l·(‖V‖+‖ΔV‖)·log‖ΔV‖) for BalancedRedBlue, on key-preserving
//     problems;
//   - Theorem 3's l for PrimalDual and Theorem 4's 2√‖V‖ for
//     LowDegTreeTwo, when every query is key-preserving and the query
//     hypergraph is a forest (classify.MultiQuery);
//   - 0 for everything else: Greedy, LocalSearch, Portfolio and the
//     source side-effect solvers.
//
// l is the maximum view arity, ‖V‖ the total view size and ‖ΔV‖ the
// deletion request's size; log‖ΔV‖ is evaluated as ln(‖ΔV‖+1), so a
// one-tuple request keeps a positive bound.
func Guarantee(s Solver, p *Problem) float64 {
	l, V, dV := float64(p.MaxArity()), float64(p.TotalViewSize()), float64(p.DeltaLen())
	switch s := s.(type) {
	case *BruteForce, *RedBlueExact, *DPTree, *SingleTupleExact, *Unidimensional:
		return 1
	case *BalancedRedBlue:
		if s.Exact {
			return 1
		}
		if p.IsKeyPreserving() {
			return 2 * math.Sqrt(l*(V+dV)*math.Log(dV+1))
		}
	case *RedBlue:
		if p.IsKeyPreserving() {
			return 2 * math.Sqrt(l*V*math.Log(dV+1))
		}
	case *PrimalDual:
		if keyPreservingForest(p) {
			return l
		}
	case *LowDegTreeTwo:
		if keyPreservingForest(p) {
			return 2 * math.Sqrt(V)
		}
	}
	return 0
}

// keyPreservingForest reports whether classify.MultiQuery finds every
// query of p key-preserving and the query hypergraph a forest, the
// setting of Theorems 3 and 4.
func keyPreservingForest(p *Problem) bool {
	res, err := classify.MultiQuery(p.Queries, cq.InstanceSchemas(p.DB))
	return err == nil && res.AllKeyPreserving && res.Forest
}
