package classify

import (
	"slices"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/fd"
	"delprop/internal/relation"
)

func schemasBoth() cq.SchemaMap {
	both := []int{0, 1}
	return cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, both),
		"S": relation.MustSchema("S", []string{"a", "b"}, both),
		"T": relation.MustSchema("T", []string{"a", "b"}, both),
	}
}

func analyze(t *testing.T, src string, schemas cq.SchemaMap, deps *fd.Set) Properties {
	t.Helper()
	q := cq.MustParse(src)
	props, err := Analyze(q, schemas, deps)
	if err != nil {
		t.Fatal(err)
	}
	return props
}

func TestHeadDominationPaperExample(t *testing.T) {
	// §IV.B: Q(y1,y2) :- T1(y1,x), T(x,y2) is sj-free key-preserving-free
	// of head-domination.
	props := analyze(t, "Q(y1, y2) :- R(y1, x), S(x, y2)", schemasBoth(), nil)
	if props.HeadDomination {
		t.Error("paper's §IV.B example wrongly head-dominated")
	}
	if !props.SelfJoinFree {
		t.Error("should be sj-free")
	}
	if props.ProjectFree {
		t.Error("x is existential; not project-free")
	}
}

func TestHeadDominationPositive(t *testing.T) {
	// Q(y) :- R(y,x), S(x,z): the single component's head vars {y} are
	// covered by R's variables.
	props := analyze(t, "Q(y) :- R(y, x), S(x, z)", schemasBoth(), nil)
	if !props.HeadDomination {
		t.Error("dominated query not recognized")
	}
	// Project-free queries are vacuously head-dominated.
	props = analyze(t, "Q(x, y) :- R(x, y)", schemasBoth(), nil)
	if !props.HeadDomination {
		t.Error("project-free query not head-dominated")
	}
}

func TestHeadDominationTwoComponents(t *testing.T) {
	// Two independent existential components, each dominated.
	schemas := cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		"S": relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
		"U": relation.MustSchema("U", []string{"a", "b"}, []int{0, 1}),
		"W": relation.MustSchema("W", []string{"a", "b"}, []int{0, 1}),
	}
	props := analyze(t, "Q(y1, y2) :- R(y1, x1), U(y2, x2)", schemas, nil)
	if !props.HeadDomination {
		t.Error("independently dominated components not recognized")
	}
	// One dominated, one not.
	props = analyze(t, "Q(y1, y2, y3) :- R(y1, x1), S(y2, x2), U(x2, y3)", schemas, nil)
	if props.HeadDomination {
		t.Error("undominated second component missed")
	}
}

func TestFDHeadDomination(t *testing.T) {
	// Without FDs the §IV.B query is undominated; keying S on its first
	// column yields the variable FD x→y2 which closes R's atom over
	// {y1,x,y2}.
	schemas := cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		"S": relation.MustSchema("S", []string{"a", "b"}, []int{0}),
	}
	q := cq.MustParse("Q(y1, y2) :- R(y1, x), S(x, y2)")
	deps, err := VariableFDs(q, schemas)
	if err != nil {
		t.Fatal(err)
	}
	props, err := Analyze(q, schemas, deps)
	if err != nil {
		t.Fatal(err)
	}
	if props.HeadDomination {
		t.Error("plain head-domination should fail")
	}
	if !props.FDHeadDomination {
		t.Error("fd-head-domination should hold with S keyed on a")
	}
}

func TestTriadDetection(t *testing.T) {
	// Triangle: classic triad.
	props := analyze(t, "Q(x) :- R(x, y), S(y, z), T(z, x)", schemasBoth(), nil)
	if !props.HasTriad {
		t.Error("triangle triad not detected")
	}
	// Chain of three: S(y,z) separates R and T... check: pairs must
	// connect avoiding the third. R-T avoiding S's vars {y,z}: R{x,y},
	// T{z,w} share nothing outside {y,z} -> no triad.
	schemas := schemasBoth()
	schemas["T"] = relation.MustSchema("T", []string{"a", "b"}, []int{0, 1})
	props = analyze(t, "Q(x) :- R(x, y), S(y, z), T(z, w)", schemas, nil)
	if props.HasTriad {
		t.Error("chain wrongly reported a triad")
	}
	// Two atoms: never a triad.
	props = analyze(t, "Q(x) :- R(x, y), S(y, z)", schemasBoth(), nil)
	if props.HasTriad {
		t.Error("two atoms cannot form a triad")
	}
}

func TestVariableFDsFromKeys(t *testing.T) {
	schemas := cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, []int{0}),
	}
	q := cq.MustParse("Q(x, y) :- R(x, y)")
	deps, err := VariableFDs(q, schemas)
	if err != nil {
		t.Fatal(err)
	}
	// Key a gives x→{x,y}.
	if !slices.Contains(deps.Closure([]string{"x"}), "y") {
		t.Errorf("key FD missing: %s", deps)
	}
	// The key is the only source: y determines nothing else.
	if slices.Contains(deps.Closure([]string{"y"}), "x") {
		t.Errorf("non-key y determines x: %s", deps)
	}
	// Unknown relation errors.
	if _, err := VariableFDs(cq.MustParse("Q(x) :- Nope(x)"), schemas); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestCorpusReproducesTables is experiment E1–E4 in test form: every
// corpus row's decided class matches the paper's table.
func TestCorpusReproducesTables(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Table+"/"+e.Name, func(t *testing.T) {
			var deps *fd.Set
			if e.WithFDs {
				var err error
				deps, err = VariableFDs(e.Query, e.Schemas)
				if err != nil {
					t.Fatal(err)
				}
			}
			props, err := Analyze(e.Query, e.Schemas, deps)
			if err != nil {
				t.Fatal(err)
			}
			if e.ExpectSource != "" {
				if got := SourceSideEffect(props, e.WithFDs); got != e.ExpectSource {
					t.Errorf("source class = %s, want %s (props %+v)", got, e.ExpectSource, props)
				}
			}
			if e.ExpectView != "" {
				if got := ViewSideEffect(props, e.WithFDs); got != e.ExpectView {
					t.Errorf("view class = %s, want %s (props %+v)", got, e.ExpectView, props)
				}
			}
		})
	}
}

func TestStaticCorpusShape(t *testing.T) {
	rows := StaticCorpus()
	if len(rows) == 0 {
		t.Fatal("empty static corpus")
	}
	for _, r := range rows {
		if r.Table == "" || r.Class == "" || r.Citation == "" {
			t.Errorf("incomplete static row %+v", r)
		}
	}
}

func TestMultiQueryClassification(t *testing.T) {
	both := []int{0, 1}
	schemas := cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, both),
		"S": relation.MustSchema("S", []string{"a", "b"}, both),
		"T": relation.MustSchema("T", []string{"a", "b"}, both),
	}
	// Single key-preserving query: PTime.
	res, err := MultiQuery([]*cq.Query{cq.MustParse("Q(x, y) :- R(x, y)")}, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != PTime {
		t.Errorf("single query class = %s", res.Class)
	}
	// Two project-free queries, forest dual graph (nested edges).
	res, err = MultiQuery([]*cq.Query{
		cq.MustParse("Q1(x, y) :- R(x, y)"),
		cq.MustParse("Q2(x, y, z) :- R(x, y), S(y, z)"),
	}, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forest || res.Class != ApproxForest {
		t.Errorf("forest case: %+v", res)
	}
	// Fig 3(a)-shaped non-forest query set.
	res, err = MultiQuery([]*cq.Query{
		cq.MustParse("QA(x,y,z,w) :- R(x,y), S(y,z), T(z,w)"),
		cq.MustParse("QB(x,y,z) :- R(x,y), S(y,z)"),
		cq.MustParse("QC(x,y,z) :- R(x,y), T(y,z)"),
		cq.MustParse("QD(x,y,z) :- S(x,y), T(y,z)"),
	}, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forest {
		t.Error("Fig 3(a)-shaped set wrongly a forest")
	}
	if res.Class != ApproxGeneral {
		t.Errorf("general class = %s", res.Class)
	}
	// Non-key-preserving member: unknown.
	schemas["U"] = relation.MustSchema("U", []string{"a", "b", "c"}, both)
	res, err = MultiQuery([]*cq.Query{
		cq.MustParse("Q1(x) :- R(x, y)"),
		cq.MustParse("Q2(x, y) :- S(x, y)"),
	}, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllKeyPreserving || res.Class != Unknown {
		t.Errorf("non-KP set: %+v", res)
	}
	// Invalid query propagates.
	if _, err := MultiQuery([]*cq.Query{cq.MustParse("Q(x) :- Nope(x)")}, schemas); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestAnalyzeMinimized: a query with a redundant self-join atom is
// unclassifiable raw (the dichotomies need sj-freedom), but its core is
// sj-free and classifies as PTime.
func TestAnalyzeMinimized(t *testing.T) {
	both := []int{0, 1}
	schemas := cq.SchemaMap{"R": relation.MustSchema("R", []string{"a", "b"}, both)}
	q := cq.MustParse("Q(x) :- R(x, y), R(x, z)")
	// Raw: self-join, not key-preserving -> both classes Unknown.
	raw, err := Analyze(q, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.SelfJoinFree {
		t.Fatal("setup: raw query should have a self-join")
	}
	if got := ViewSideEffect(raw, false); got != Unknown {
		t.Fatalf("raw class = %s", got)
	}
	// Minimized: R(x,z) folds onto R(x,y); the core is sj-free with a
	// single atom, trivially head-dominated and triad-free -> PTime.
	props, core, err := AnalyzeMinimized(q, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.Body) != 1 {
		t.Fatalf("core = %s", core)
	}
	if !props.SelfJoinFree {
		t.Error("core should be sj-free")
	}
	if got := ViewSideEffect(props, false); got != PTime {
		t.Errorf("core view class = %s, want PTime", got)
	}
	if got := SourceSideEffect(props, false); got != PTime {
		t.Errorf("core source class = %s, want PTime", got)
	}
	// Invalid query propagates.
	if _, _, err := AnalyzeMinimized(cq.MustParse("Q(x) :- Nope(x)"), schemas, nil); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSourceViewUnknownFallbacks(t *testing.T) {
	// Self-join, non-key-preserving: both deciders report Unknown.
	both := []int{0, 1}
	schemas := cq.SchemaMap{"R": relation.MustSchema("R", []string{"a", "b"}, both)}
	props := analyze(t, "Q(x) :- R(x, y), R(y, z)", schemas, nil)
	if props.SelfJoinFree {
		t.Fatal("setup: query should have a self-join")
	}
	if got := SourceSideEffect(props, false); got != Unknown {
		t.Errorf("source = %s, want unknown", got)
	}
	if got := ViewSideEffect(props, false); got != Unknown {
		t.Errorf("view = %s, want unknown", got)
	}
}
