package cq

import (
	"testing"

	"delprop/internal/relation"
)

func TestFindHomomorphismIdentity(t *testing.T) {
	q := MustParse("Q(x) :- R(x, y)")
	h, ok := FindHomomorphism(q, q)
	if !ok {
		t.Fatal("no identity homomorphism")
	}
	if h["x"] != V("x") {
		t.Errorf("h = %s", h)
	}
}

func TestContainmentClassic(t *testing.T) {
	// Q1(x) :- R(x,y), R(y,z)    (paths of length 2 from x)
	// Q2(x) :- R(x,y)            (edges from x)
	// Q1 ⊆ Q2: every 2-path start has an edge. Homomorphism Q2→Q1 maps
	// y↦y.
	q1 := MustParse("Q(x) :- R(x, y), R(y, z)")
	q2 := MustParse("Q(x) :- R(x, y)")
	if !ContainedIn(q1, q2) {
		t.Error("2-path ⊆ edge not derived")
	}
	if ContainedIn(q2, q1) {
		t.Error("edge ⊆ 2-path wrongly derived")
	}
	if EquivalentQueries(q1, q2) {
		t.Error("inequivalent queries reported equivalent")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	qa := MustParse("Q(x) :- R(x, 'c')")
	qb := MustParse("Q(x) :- R(x, y)")
	// qa ⊆ qb (hom qb→qa: y↦'c').
	if !ContainedIn(qa, qb) {
		t.Error("constant specialization not contained")
	}
	if ContainedIn(qb, qa) {
		t.Error("reverse containment wrongly derived")
	}
	// Mismatched constants.
	qc := MustParse("Q(x) :- R(x, 'd')")
	if ContainedIn(qa, qc) || ContainedIn(qc, qa) {
		t.Error("distinct constants should be incomparable")
	}
}

func TestHeadMismatch(t *testing.T) {
	q1 := MustParse("Q(x, y) :- R(x, y)")
	q2 := MustParse("Q(x) :- R(x, y)")
	if _, ok := FindHomomorphism(q1, q2); ok {
		t.Error("arity-mismatched heads unified")
	}
	// Head order matters.
	q3 := MustParse("Q(y, x) :- R(x, y)")
	if EquivalentQueries(q1, q3) {
		t.Error("swapped head reported equivalent")
	}
}

func TestMinimizeRedundantAtom(t *testing.T) {
	// R(x,y), R(x,z) with z existential: the second atom folds onto the
	// first (z↦y). Core: R(x,y).
	q := MustParse("Q(x) :- R(x, y), R(x, z)")
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Errorf("Minimize left %d atoms: %s", len(m.Body), m)
	}
	if !EquivalentQueries(q, m) {
		t.Error("minimized query not equivalent")
	}
}

func TestMinimizeKeepsNecessaryAtoms(t *testing.T) {
	// A genuine 2-path cannot shrink.
	q := MustParse("Q(x, z) :- R(x, y), R(y, z)")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Errorf("over-minimized: %s", m)
	}
	if !IsMinimal(q) {
		t.Error("IsMinimal false for a core")
	}
	if IsMinimal(MustParse("Q(x) :- R(x, y), R(x, z)")) {
		t.Error("IsMinimal true for a redundant query")
	}
}

func TestMinimizeTriangleWithApex(t *testing.T) {
	// Classic: Q() is boolean-ish; we use a head variable to keep safety.
	// Q(x) :- R(x,y), R(x,z), S(y,w), S(z,w2): S-atoms fold pairwise.
	q := MustParse("Q(x) :- R(x, y), R(x, z), S(y, w), S(z, w2)")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Errorf("core should have 2 atoms, got %s", m)
	}
	if !EquivalentQueries(q, m) {
		t.Error("not equivalent after minimization")
	}
}

func TestMinimizeHeadSafety(t *testing.T) {
	// Both atoms carry head variables; nothing can be dropped even though
	// the relations repeat.
	q := MustParse("Q(x, z) :- R(x, y), R(z, y)")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Errorf("dropped an atom binding a head variable: %s", m)
	}
}

// TestContainmentSemanticsOnData: if q1 ⊆ q2 per the homomorphism test,
// then on a concrete database q1's answers are a subset of q2's.
func TestContainmentSemanticsOnData(t *testing.T) {
	db := relation.NewInstance(relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}))
	edges := [][2]string{{"1", "2"}, {"2", "3"}, {"3", "1"}, {"2", "2"}}
	for _, e := range edges {
		db.MustInsert("R", e[0], e[1])
	}
	pairs := [][2]string{
		{"Q(x) :- R(x, y), R(y, z)", "Q(x) :- R(x, y)"},
		{"Q(x) :- R(x, 'c')", "Q(x) :- R(x, y)"},
		{"Q(x) :- R(x, x)", "Q(x) :- R(x, y)"},
	}
	for _, pr := range pairs {
		q1, q2 := MustParse(pr[0]), MustParse(pr[1])
		if !ContainedIn(q1, q2) {
			t.Fatalf("setup: %s ⊆ %s expected", pr[0], pr[1])
		}
		r1 := MustEvaluate(q1, db)
		r2 := MustEvaluate(q2, db)
		for _, a := range r1.Answers() {
			if !r2.Contains(a.Tuple) {
				t.Errorf("%s produced %v missing from %s", pr[0], a.Tuple, pr[1])
			}
		}
	}
}

// TestMinimizePreservesAnswers: minimization must not change the query
// result on concrete data.
func TestMinimizePreservesAnswers(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	for _, e := range [][2]string{{"1", "2"}, {"2", "3"}, {"1", "3"}} {
		db.MustInsert("R", e[0], e[1])
		db.MustInsert("S", e[1], e[0])
	}
	queries := []string{
		"Q(x) :- R(x, y), R(x, z)",
		"Q(x) :- R(x, y), S(y, w), S(y, w2)",
		"Q(x, z) :- R(x, y), R(y, z)",
	}
	for _, src := range queries {
		q := MustParse(src)
		m := Minimize(q)
		ra := MustEvaluate(q, db)
		rb := MustEvaluate(m, db)
		if ra.NumAnswers() != rb.NumAnswers() {
			t.Errorf("%s: %d answers vs minimized %d", src, ra.NumAnswers(), rb.NumAnswers())
			continue
		}
		for _, a := range ra.Answers() {
			if !rb.Contains(a.Tuple) {
				t.Errorf("%s: minimized lost %v", src, a.Tuple)
			}
		}
	}
}

func TestHomomorphismString(t *testing.T) {
	h := Homomorphism{"b": V("y"), "a": C("c")}
	if got := h.String(); got != "{a↦'c', b↦y}" {
		t.Errorf("String = %q", got)
	}
}

// EquivalentQueries reports whether the two queries are equivalent.
func EquivalentQueries(q1, q2 *Query) bool {
	return ContainedIn(q1, q2) && ContainedIn(q2, q1)
}

// IsMinimal reports whether no atom can be dropped while preserving
// equivalence.
func IsMinimal(q *Query) bool {
	return len(Minimize(q).Body) == len(q.Body)
}

// ContainedIn reports whether q1 ⊆ q2 (every answer of q1 is an answer of
// q2 on every database), via a homomorphism from q2 to q1.
func ContainedIn(q1, q2 *Query) bool {
	_, ok := FindHomomorphism(q2, q1)
	return ok
}
