package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"delprop/internal/view"
	"delprop/internal/workload"
)

// TestSpecializeSharesSkeleton: a specialized problem must share every
// immutable artifact of its parent by pointer and carry only the new request.
func TestSpecializeSharesSkeleton(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := workload.SampleDeletion(p.Views, 2, 7)
	p2, err := p.Specialize(delta)
	if err != nil {
		t.Fatal(err)
	}
	if p2.DB != p.DB || &p2.Queries[0] == nil || p2.Views[0] != p.Views[0] {
		t.Fatal("specialized problem must share DB and views by pointer")
	}
	if p2.Index() != p.Index() {
		t.Error("specialized problem must share the provenance index")
	}
	if p2.IsKeyPreserving() != p.IsKeyPreserving() {
		t.Error("key-preserving verdict must carry over")
	}
	if !reflect.DeepEqual(p2.DeltaRefs(), delta.Refs()) {
		t.Error("specialized problem must adopt the supplied delta")
	}
	if p2.rq.weights != nil {
		t.Error("specialized problem must start with no weights")
	}
	if p.DeltaLen() != 0 {
		t.Error("specializing must not mutate the parent's delta")
	}
	if p2.skel != p.skel {
		t.Error("specialized problem must share the skeleton and its lazy artifacts")
	}
}

// TestSpecializeValidatesDelta: a delta referencing a non-answer must be
// rejected exactly as NewProblem would reject it.
func TestSpecializeValidatesDelta(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := view.NewDeletion(view.TupleRef{View: 0, Tuple: tup("NoSuch", "Tuple")})
	if _, err := p.Specialize(bad); err == nil {
		t.Fatal("expected validation error for a non-answer delta")
	}
	// nil delta degrades to an empty request, matching NewProblem.
	p2, err := p.Specialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.DeltaLen() != 0 {
		t.Errorf("nil delta should specialize to empty, got %d refs", p2.DeltaLen())
	}
}

// TestQueryPropertiesMemoized: the classify verdicts are computed once per
// skeleton and shared with every Specialize derivative.
func TestQueryPropertiesMemoized(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	props1, err := p.QueryProperties()
	if err != nil {
		t.Fatal(err)
	}
	if len(props1) != len(p.Queries) {
		t.Fatalf("want %d verdicts, got %d", len(p.Queries), len(props1))
	}
	p2, err := p.Specialize(workload.SampleDeletion(p.Views, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	props2, err := p2.QueryProperties()
	if err != nil {
		t.Fatal(err)
	}
	if &props1[0] != &props2[0] {
		t.Error("derivative must reuse the parent's memoized verdict slice")
	}
}

// TestNewMaintainerIsolated: maintainers over the shared index must not
// see each other's deletions.
func TestNewMaintainerIsolated(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := view.TupleRef{View: 0, Tuple: tup("John", "XML")}
	m1 := p.Index().NewMaintainer()
	m2 := p.Index().NewMaintainer()
	if m1 == m2 {
		t.Fatal("each NewMaintainer call must return an isolated clone")
	}
	ans, ok := p.Answer(ref)
	if !ok {
		t.Fatalf("%s is not an answer", ref)
	}
	x := p.Index()
	for _, d := range ans.Derivations() {
		for _, id := range d {
			ti, _ := x.LookupTuple(id)
			m1.Delete(ti)
		}
	}
	r, _ := x.LookupRef(ref)
	if m1.Alive(r) {
		t.Error("deleting every derivation tuple must kill the answer on m1")
	}
	if !m2.Alive(r) {
		t.Error("deletions on one clone leaked into its sibling")
	}
}

// TestSpecializeSolveMatchesCold: with random preservation weights,
// every registered solver must return a byte-identical Solution and
// Report for a warm Specialize and for a cold NewProblem of the same
// request, each followed by the same SetWeights. A solver may only
// decline an instance outside its class (rejectsInstance); Greedy
// accepts every instance. A request naming an unknown view tuple is
// rejected with the same text both ways, and a duplicated ref counts
// once.
func TestSpecializeSolveMatchesCold(t *testing.T) {
	type instance struct {
		name string
		seed int64
		w    *workload.Workload
	}
	var insts []instance
	for seed := int64(1); seed <= 4; seed++ {
		insts = append(insts, instance{"star", seed, workload.Star(workload.StarConfig{Seed: seed, Relations: 3, HubValues: 4, Queries: 2, AtomsPerQuery: 2, RowsPerRelation: 14})})
	}
	insts = append(insts,
		instance{"chain", 1, workload.Chain(workload.ChainConfig{Seed: 1, Length: 4, Domain: 3, RowsPerRelation: 6, Queries: 3, MaxSpan: 3})},
		instance{"pivot", 1, workload.Pivot(workload.PivotConfig{Seed: 1, Roots: 3, ChildrenPerRoot: 2, GrandPerChild: 2, Depth3: true})},
	)
	for _, inst := range insts {
		skeleton, err := NewProblem(inst.w.DB, inst.w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for seed := inst.seed; seed < inst.seed+3; seed++ {
			delta := workload.SampleDeletion(skeleton.Views, 3, seed+100)
			requested := view.NewDeletion(delta.Refs()...)
			var weighted []view.TupleRef
			var weights []float64
			for _, v := range skeleton.Views {
				for _, ans := range v.Result.Answers() {
					if ref := (view.TupleRef{View: v.Index, Tuple: ans.Tuple}); !requested.Contains(ref) && rng.Intn(2) == 0 {
						weighted = append(weighted, ref)
						weights = append(weights, 0.1+4*rng.Float64())
					}
				}
			}
			warmP := respecialize(t, skeleton, delta)
			coldP, err := NewProblem(inst.w.DB, inst.w.Queries, delta)
			if err != nil {
				t.Fatal(err)
			}
			for i, ref := range weighted {
				warmP.SetWeight(ref, weights[i])
				coldP.SetWeight(ref, weights[i])
			}
			for _, name := range SolverNames() {
				warmS, err := NewSolver(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := warmS.(*Faulty); ok {
					continue // a fault-injection solver another test mounted
				}
				coldS, _ := NewSolver(name)
				warmSol, warmErr := warmS.Solve(context.Background(), warmP)
				coldSol, coldErr := coldS.Solve(context.Background(), coldP)
				if warmErr != nil || coldErr != nil {
					if fmt.Sprint(warmErr) != fmt.Sprint(coldErr) {
						t.Errorf("%s %d seed %d %s: warm error %v, cold error %v", inst.name, inst.seed, seed, name, warmErr, coldErr)
					} else if name == "greedy" || !rejectsInstance(name, coldP, coldErr) {
						t.Errorf("%s %d seed %d %s: %v", inst.name, inst.seed, seed, name, coldErr)
					}
					continue
				}
				warm := fmt.Sprintf("%v %+v", warmSol.Deleted, warmP.Evaluate(warmSol))
				cold := fmt.Sprintf("%v %+v", coldSol.Deleted, coldP.Evaluate(coldSol))
				if warm != cold {
					t.Errorf("%s %d seed %d %s:\nwarm %s\ncold %s", inst.name, inst.seed, seed, name, warm, cold)
				}
			}
		}

		good := skeleton.Index().Ref(0)
		n := len(skeleton.Views)
		for _, c := range []struct {
			delta *view.Deletion
			want  string
		}{
			{view.NewDeletion(good, view.TupleRef{View: 0, Tuple: tup("no", "such")}), "view: deletion names unknown view tuple: V0(no,such)"},
			{view.NewDeletion(view.TupleRef{View: n, Tuple: good.Tuple}), fmt.Sprintf("view: deletion names unknown view tuple: view index %d out of range", n)},
			{view.NewDeletion(view.TupleRef{View: -1, Tuple: good.Tuple}), "view: deletion names unknown view tuple: view index -1 out of range"},
		} {
			_, coldErr := NewProblem(inst.w.DB, inst.w.Queries, c.delta)
			_, warmErr := skeleton.Specialize(c.delta)
			for _, err := range []error{coldErr, warmErr} {
				if !errors.Is(err, view.ErrUnknownViewTuple) || err.Error() != c.want {
					t.Errorf("%s: error %v, want %q", inst.name, err, c.want)
				}
			}
		}
		dup := view.NewDeletion(good, view.TupleRef{View: good.View, Tuple: good.Tuple.Clone()}, good)
		coldP, err := NewProblem(inst.w.DB, inst.w.Queries, dup)
		if err != nil {
			t.Fatal(err)
		}
		if warmP := respecialize(t, skeleton, dup); coldP.DeltaLen() != 1 || warmP.DeltaLen() != 1 {
			t.Errorf("%s: duplicated ref counts %d cold, %d warm; want 1", inst.name, coldP.DeltaLen(), warmP.DeltaLen())
		}
	}
}

// rejectsInstance reports whether err is the named solver declining p
// as outside its class or size limit, rather than failing on an
// instance it accepts.
func rejectsInstance(name string, p *Problem, err error) bool {
	for _, e := range []error{ErrNotKeyPreserving, ErrTooLarge, ErrNotPivotForest, ErrNotHeadDominated} {
		if errors.Is(err, e) {
			return true
		}
	}
	switch name {
	case "single-exact":
		return p.DeltaLen() != 1
	case "unidimensional":
		return len(p.Queries) != 1
	}
	return false
}
