// Package classify implements the executable counterpart of the paper's
// complexity tables (Tables II–V): structural deciders for the properties
// the dichotomies are stated over — project-free, self-join-free,
// key-preserving, head-domination and fd-head-domination (Kimelfeld), triad
// and fd-induced triad (Freire et al.) — and the resulting complexity
// classification of the source and view side-effect problems for a single
// query, plus the paper's own multi-query classification (Theorems 1–4,
// Algorithm 4).
//
// Two deliberate simplifications, recorded in DESIGN.md: level-k
// head-domination (the trichotomy of Kimelfeld et al. 2013) is reported at
// level 1 only, and the triad test uses the structural three-atom
// connectivity condition without the endogenous/exogenous refinement.
package classify

import (
	"fmt"
	"sort"

	"delprop/internal/cq"
	"delprop/internal/fd"
	"delprop/internal/hypergraph"
)

// Properties are the structural facts about one conjunctive query that the
// dichotomies consume.
type Properties struct {
	ProjectFree       bool
	SelectFree        bool
	SelfJoinFree      bool
	KeyPreserving     bool
	HeadDomination    bool
	FDHeadDomination  bool
	HasTriad          bool
	HasFDInducedTriad bool
}

// Analyze computes the properties of a query under the given schemas and
// (possibly empty) functional dependencies. FDs are variable-level:
// VariableFDs derives the ones relation keys imply.
func Analyze(q *cq.Query, schemas cq.SchemaResolver, deps *fd.Set) (Properties, error) {
	if err := q.Validate(schemas); err != nil {
		return Properties{}, err
	}
	kp, err := q.IsKeyPreserving(schemas)
	if err != nil {
		return Properties{}, err
	}
	if deps == nil {
		deps = fd.NewSet()
	}
	props := Properties{
		ProjectFree:   q.IsProjectFree(),
		SelectFree:    q.IsSelectFree(),
		SelfJoinFree:  q.IsSelfJoinFree(),
		KeyPreserving: kp,
	}
	props.HeadDomination = headDomination(q, nil)
	props.FDHeadDomination = headDomination(q, deps)
	props.HasTriad = hasTriad(q, nil)
	props.HasFDInducedTriad = hasTriad(q, deps)
	return props, nil
}

// AnalyzeMinimized minimizes the query to its Chandra–Merlin core first
// and analyzes that. Minimization matters exactly when the query has
// redundant self-join atoms: those fold away, and a query that looked like
// a self-join (where the dichotomies say nothing) can become sj-free and
// classifiable. Equivalent queries have the same side-effect complexity,
// so classifying the core is sound. Returns the core alongside its
// properties.
func AnalyzeMinimized(q *cq.Query, schemas cq.SchemaResolver, deps *fd.Set) (Properties, *cq.Query, error) {
	if err := q.Validate(schemas); err != nil {
		return Properties{}, nil, err
	}
	core := cq.Minimize(q)
	props, err := Analyze(core, schemas, deps)
	if err != nil {
		return Properties{}, nil, err
	}
	return props, core, nil
}

// VariableFDs lifts relation keys onto the query's variables: for every
// atom T(t1..tk), the variables at T's key positions determine the
// variables at all its positions (constant positions are dropped).
func VariableFDs(q *cq.Query, schemas cq.SchemaResolver) (*fd.Set, error) {
	out := fd.NewSet()
	for _, a := range q.Body {
		s, ok := schemas.SchemaOf(a.Relation)
		if !ok {
			return nil, fmt.Errorf("classify: unknown relation %s", a.Relation)
		}
		posVars := func(positions []int) []string {
			var vs []string
			for _, p := range positions {
				if p < len(a.Terms) && a.Terms[p].IsVar() {
					vs = append(vs, a.Terms[p].Var)
				}
			}
			return vs
		}
		allPos := make([]int, s.Arity())
		for i := range allPos {
			allPos[i] = i
		}
		lhs := posVars(s.Key)
		rhs := posVars(allPos)
		if len(lhs) > 0 && len(rhs) > 0 {
			out.Add(fd.New(lhs, rhs))
		}
	}
	return out, nil
}

// headDomination decides Kimelfeld's head-domination, optionally under
// variable FDs: the head is first extended with every variable functionally
// determined by it; then for every connected component of the
// existential-variable subquery there must be an atom covering the
// component's (non-extended-head) head variables.
func headDomination(q *cq.Query, deps *fd.Set) bool {
	head := make(map[string]bool)
	for _, v := range q.HeadVars() {
		head[v] = true
	}
	if deps != nil {
		for _, v := range deps.Closure(q.HeadVars()) {
			head[v] = true
		}
	}
	exist := make(map[string]bool)
	for _, v := range q.BodyVars() {
		if !head[v] {
			exist[v] = true
		}
	}
	if len(exist) == 0 {
		return true
	}
	// Atoms holding at least one existential variable, connected when they
	// share one.
	var exAtoms []int
	for i, a := range q.Body {
		for _, v := range a.Vars() {
			if exist[v] {
				exAtoms = append(exAtoms, i)
				break
			}
		}
	}
	parent := make(map[int]int)
	for _, i := range exAtoms {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	byVar := make(map[string]int)
	for _, i := range exAtoms {
		for _, v := range q.Body[i].Vars() {
			if !exist[v] {
				continue
			}
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	comps := make(map[int][]int)
	for _, i := range exAtoms {
		comps[find(i)] = append(comps[find(i)], i)
	}
	for _, atoms := range comps {
		// Head variables occurring in the component.
		needed := make(map[string]bool)
		for _, i := range atoms {
			for _, v := range q.Body[i].Vars() {
				if head[v] {
					needed[v] = true
				}
			}
		}
		// Some atom of the whole query must cover them.
		covered := false
		for _, a := range q.Body {
			vars := make(map[string]bool)
			for _, v := range a.Vars() {
				vars[v] = true
			}
			if deps != nil {
				for _, v := range deps.Closure(a.Vars()) {
					vars[v] = true
				}
			}
			all := true
			for v := range needed {
				if !vars[v] {
					all = false
					break
				}
			}
			if all {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// hasTriad decides the structural triad condition of Freire et al.: three
// atoms such that every pair is connected by a path of atoms sharing
// variables outside the third atom's variable set. Under FDs each atom's
// variable set is first closed.
func hasTriad(q *cq.Query, deps *fd.Set) bool {
	n := len(q.Body)
	if n < 3 {
		return false
	}
	atomVars := make([]map[string]bool, n)
	for i, a := range q.Body {
		vs := a.Vars()
		if deps != nil {
			vs = deps.Closure(vs)
		}
		atomVars[i] = make(map[string]bool, len(vs))
		for _, v := range vs {
			atomVars[i][v] = true
		}
	}
	connectedAvoiding := func(a, b, avoid int) bool {
		if a == b {
			return true
		}
		seen := make([]bool, n)
		seen[a] = true
		queue := []int{a}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for y := 0; y < n; y++ {
				if seen[y] || y == avoid {
					continue
				}
				share := false
				for v := range atomVars[x] {
					if atomVars[avoid][v] {
						continue // variable of the avoided atom
					}
					if atomVars[y][v] {
						share = true
						break
					}
				}
				if share {
					if y == b {
						return true
					}
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				if connectedAvoiding(i, j, k) &&
					connectedAvoiding(j, k, i) &&
					connectedAvoiding(i, k, j) {
					return true
				}
			}
		}
	}
	return false
}

// Complexity is a coarse complexity class label as used by the paper's
// tables.
type Complexity string

// The classes appearing in Tables II–V and in the paper's own results.
const (
	PTime         Complexity = "PTime"
	NPComplete    Complexity = "NP-complete"
	ApproxForest  Complexity = "approximable within min(l, 2√‖V‖) (forest case)"
	ApproxGeneral Complexity = "approximable within 2√(l·‖V‖·log‖ΔV‖)"
	Unknown       Complexity = "unknown"
)

// SourceSideEffect classifies the single-query source side-effect problem
// (Tables II–III): key-preserving ⇒ PTime (Cong et al.); sj-free ⇒ the
// triad dichotomy of Freire et al. (fd-induced triad when FDs are given);
// otherwise unknown within this engine.
func SourceSideEffect(props Properties, withFDs bool) Complexity {
	if props.KeyPreserving {
		return PTime
	}
	if props.SelfJoinFree {
		triad := props.HasTriad
		if withFDs {
			triad = props.HasFDInducedTriad
		}
		if triad {
			return NPComplete
		}
		return PTime
	}
	return Unknown
}

// ViewSideEffect classifies the single-query view side-effect problem
// (Tables IV–V): key-preserving ⇒ PTime (Cong et al.); sj-free ⇒ the
// (fd-)head-domination dichotomy of Kimelfeld; project-free & sj-free ⇒
// PTime (Buneman et al., subsumed by head-domination); otherwise unknown.
func ViewSideEffect(props Properties, withFDs bool) Complexity {
	if props.KeyPreserving {
		return PTime
	}
	if props.SelfJoinFree {
		dom := props.HeadDomination
		if withFDs {
			dom = props.FDHeadDomination
		}
		if dom {
			return PTime
		}
		return NPComplete
	}
	return Unknown
}

// MultiQueryResult is the paper's own classification for a set of queries.
type MultiQueryResult struct {
	AllProjectFree   bool
	AllKeyPreserving bool
	Forest           bool
	Class            Complexity
	// Guarantees lists the approximation guarantees that apply.
	Guarantees []string
}

// MultiQuery classifies the multi-query view side-effect problem per the
// paper: a single key-preserving query is PTime; two or more project-free
// queries are NP-hard to approximate within 2^(log^(1-δ)‖V‖) (Theorem 1)
// yet approximable within 2√(l·‖V‖·log‖ΔV‖) in general (Claim 1), within
// min(l, 2√‖V‖) on forests (Theorems 3–4), and exactly solvable on pivot
// forests (Algorithm 4 — data-dependent, so reported as a guarantee, not a
// class).
func MultiQuery(queries []*cq.Query, schemas cq.SchemaResolver) (MultiQueryResult, error) {
	res := MultiQueryResult{AllProjectFree: true, AllKeyPreserving: true}
	hg := hypergraph.New()
	for i, q := range queries {
		if err := q.Validate(schemas); err != nil {
			return MultiQueryResult{}, err
		}
		if !q.IsProjectFree() {
			res.AllProjectFree = false
		}
		kp, err := q.IsKeyPreserving(schemas)
		if err != nil {
			return MultiQueryResult{}, err
		}
		if !kp {
			res.AllKeyPreserving = false
		}
		hg.AddEdge(hypergraph.NewEdge(fmt.Sprintf("Q%d", i), q.RelationNames()...))
	}
	res.Forest = hg.IsForest()
	switch {
	case len(queries) <= 1 && res.AllKeyPreserving:
		res.Class = PTime
		res.Guarantees = []string{"single key-preserving query: exact in PTime (Cong et al.)"}
	case !res.AllKeyPreserving:
		res.Class = Unknown
		res.Guarantees = []string{"outside the key-preserving fragment: no guarantee from this paper"}
	case res.Forest:
		res.Class = ApproxForest
		res.Guarantees = []string{
			"Theorem 1: NP-hard to approximate within 2^(log^(1-δ)‖V‖)",
			"Theorem 3: primal-dual l-approximation",
			"Theorem 4: low-degree 2√‖V‖-approximation",
			"Algorithm 4: exact DP when a pivot tuple exists (data-dependent)",
		}
	default:
		res.Class = ApproxGeneral
		res.Guarantees = []string{
			"Theorem 1: NP-hard to approximate within 2^(log^(1-δ)‖V‖)",
			"Claim 1: red-blue reduction, 2√(l·‖V‖·log‖ΔV‖)-approximation",
		}
	}
	sort.Strings(res.Guarantees)
	return res, nil
}
