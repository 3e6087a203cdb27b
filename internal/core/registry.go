package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// ApproxSolvers returns the paper's approximation suite in a fixed order:
// greedy baseline, the Claim 1 red-blue reduction, the Algorithm 1
// primal-dual, and the Algorithm 3 low-degree sweep.
func ApproxSolvers() []Solver {
	return []Solver{
		&Greedy{},
		&RedBlue{},
		&PrimalDual{},
		&LowDegTreeTwo{},
	}
}

// The name registry maps CLI/API solver names to constructors. The CLI and
// HTTP server resolve fixed names here (their "auto" modes add
// instance-driven routing on top); tests register fault-injection solvers.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Solver{
		"greedy":             func() Solver { return &Greedy{} },
		"greedy-parallel":    func() Solver { return &Greedy{Workers: runtime.GOMAXPROCS(0)} },
		"red-blue":           func() Solver { return &RedBlue{} },
		"red-blue-exact":     func() Solver { return &RedBlueExact{} },
		"primal-dual":        func() Solver { return &PrimalDual{} },
		"low-deg":            func() Solver { return &LowDegTreeTwo{} },
		"dp-tree":            func() Solver { return &DPTree{} },
		"brute-force":        func() Solver { return &BruteForce{} },
		"single-exact":       func() Solver { return &SingleTupleExact{} },
		"balanced-red-blue":  func() Solver { return &BalancedRedBlue{} },
		"balanced-exact":     func() Solver { return &BalancedRedBlue{Exact: true} },
		"portfolio":          func() Solver { return &Portfolio{} },
		"portfolio-parallel": func() Solver { return &Portfolio{Parallel: true} },
		"unidimensional":     func() Solver { return &Unidimensional{} },
		"local-search":       func() Solver { return &LocalSearch{} },
	}
)

// RegisterSolver adds (or replaces) a named solver constructor. It is safe
// for concurrent use; tests use it to mount fault-injection solvers.
func RegisterSolver(name string, fn func() Solver) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = fn
}

// NewSolver constructs the named solver, or an error listing the valid
// names when the name is unknown.
func NewSolver(name string) (Solver, error) {
	registryMu.RLock()
	fn, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown solver %q (known: %v)", name, SolverNames())
	}
	return fn(), nil
}

// SolverNames lists the registered names, sorted.
func SolverNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
