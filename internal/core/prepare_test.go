package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"delprop/internal/relation"
	"delprop/internal/telemetry"
)

const (
	prepareDB = `relation T1(AuName*, Journal*)
T1(Joe, TKDE)
T1(John, TKDE)
T1(Tom, TKDE)
T1(John, TODS)
relation T2(Journal*, Topic*, Papers)
T2(TKDE, XML, 30)
T2(TKDE, CUBE, 30)
T2(TODS, XML, 30)
`
	prepareQueries = "Q4(x, y, z) :- T1(x, y), T2(y, z, w)\nQ5(y, z) :- T2(y, z, w)"
)

// preparePhases runs Prepare and returns the phases it opened, in order.
func preparePhases(src Source) (*Problem, []string, error) {
	var opened []string
	p, err := Prepare(src, func(name string) func() {
		opened = append(opened, name)
		return func() {}
	})
	return p, opened, err
}

func TestPrepareParseErrorOpensNoViews(t *testing.T) {
	for _, src := range []Source{
		{Database: "relation T1(A*", Queries: prepareQueries},
		{Database: prepareDB, Queries: "Q(x :- T1(x, y)"},
		{Database: prepareDB, Queries: ""},
		{Database: prepareDB, Queries: prepareQueries, Deletions: "Nope(a)"},
	} {
		_, opened, err := preparePhases(src)
		if err == nil {
			t.Errorf("%+v: parsed", src)
		}
		if want := []string{telemetry.PhaseParse}; !slices.Equal(opened, want) {
			t.Errorf("%+v: phases %v, want %v", src, opened, want)
		}
	}
}

func TestPrepareErrorTexts(t *testing.T) {
	skel, err := Prepare(Source{Database: prepareDB, Queries: prepareQueries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src    Source
		prefix string
		phases []string
	}{
		{Source{Database: prepareDB, Queries: ""}, "queries: empty program", []string{"parse"}},
		{Source{Database: "T9(a)", Queries: prepareQueries}, "database: ", []string{"parse"}},
		{Source{Database: prepareDB, Queries: prepareQueries, Deletions: "Nope(a)"},
			"deletions: line 1: textio: format error: unknown query Nope", []string{"parse"}},
		{Source{Skeleton: skel, Deletions: "Q4(a, b)\nNope(a)"},
			"deletions: line 2: textio: format error: unknown query Nope", []string{"parse"}},
		{Source{Database: prepareDB, Queries: prepareQueries, Deletions: "Q4(Ann, TKDE, XML)"},
			"view: deletion names unknown view tuple: V0(Ann,TKDE,XML)", []string{"parse", "views"}},
		{Source{Skeleton: skel, Deletions: "Q4(John, TKDE, XML)", Weights: map[string]float64{"Q5(TKDE, XML)": -1}},
			`weights: "Q5(TKDE, XML)" has negative weight -1`, []string{"parse", "views"}},
		{Source{Database: prepareDB, Queries: prepareQueries, Weights: map[string]float64{"Q5(TKDE,XML)": 1, "Q5(TKDE, XML)": 2}},
			`weights: "Q5(TKDE, XML)" and "Q5(TKDE,XML)" name the same tuple with different weights (2, 1)`, []string{"parse", "views"}},
		{Source{Skeleton: skel, Weights: map[string]float64{"Nope(a)": 1}},
			"weights: line 1: textio: format error: unknown query Nope", []string{"parse", "views"}},
	} {
		_, opened, err := preparePhases(tc.src)
		if err == nil || !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("%+v: err = %v, want prefix %q", tc.src, err, tc.prefix)
		}
		if !slices.Equal(opened, tc.phases) {
			t.Errorf("%+v: phases %v, want %v", tc.src, opened, tc.phases)
		}
	}
}

// TestPrepareColdMatchesSkeleton: the instance text and a skeleton built
// from it give problems that evaluate every deletion alike, weights
// included.
func TestPrepareColdMatchesSkeleton(t *testing.T) {
	del := "Q4(John, TKDE, XML)\nQ5(TODS, XML)"
	weights := map[string]float64{"Q5(TKDE, XML)": 3, "Q4(Joe, TKDE, XML)": 0.5}
	cold, opened, err := preparePhases(Source{Database: prepareDB, Queries: prepareQueries, Deletions: del, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{telemetry.PhaseParse, telemetry.PhaseViews}; !slices.Equal(opened, want) {
		t.Errorf("phases %v, want %v", opened, want)
	}
	skel, err := Prepare(Source{Database: prepareDB, Queries: prepareQueries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Prepare(Source{Skeleton: skel, Deletions: del, Weights: weights}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.DeltaLen() != 2 || warm.DeltaLen() != 2 {
		t.Fatalf("‖ΔV‖ cold %d, warm %d, want 2", cold.DeltaLen(), warm.DeltaLen())
	}
	sol, err := (&BruteForce{}).Solve(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	all := &Solution{Deleted: cold.CandidateTuples()}
	for _, s := range []*Solution{sol, {}, all} {
		if a, b := cold.Evaluate(s), warm.Evaluate(s); !reflect.DeepEqual(a, b) {
			t.Errorf("deletion %s: cold %+v, skeleton %+v", s, a, b)
		}
	}
	// Every candidate gone destroys Q4(Joe, TKDE, XML) at 0.5, Q5(TKDE,
	// XML) at 3 and three unit Q4 tuples: the weights took on both sides.
	if got := warm.Evaluate(all).SideEffect; got != 6.5 {
		t.Errorf("weighted side effect %v, want 6.5", got)
	}
}

// TestPrepareResidentCopiesText: no value, relation name or attribute of
// a resident source's parsed instance lies inside the database text, so
// a warm session does not keep its text alive, and each distinct value
// is one string. The instance keeps working: every relation is found by
// its name and every tuple by its key.
func TestPrepareResidentCopiesText(t *testing.T) {
	src := strings.Clone(prepareDB)
	p, err := Prepare(Source{Database: src, Queries: prepareQueries, Resident: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < lo+uintptr(len(src))
	}
	data := map[relation.Value]*byte{}
	for _, name := range p.DB.RelationNames() {
		r := p.DB.Relation(name)
		if r == nil {
			t.Fatalf("relation %s not found by its name", name)
		}
		if inside(name) || inside(r.Schema().Name) {
			t.Errorf("relation name %q lies inside the source text", name)
		}
		for _, a := range r.Schema().Attrs {
			if inside(a) {
				t.Errorf("attribute %s.%s lies inside the source text", name, a)
			}
		}
		for _, tp := range r.Tuples() {
			if !r.Contains(tp.Clone()) {
				t.Errorf("%s%s not found", name, tp)
			}
			for _, v := range tp {
				if inside(string(v)) {
					t.Errorf("value %q of %s%s lies inside the source text", v, name, tp)
				}
				p := unsafe.StringData(string(v))
				if q, ok := data[v]; ok && q != p {
					t.Errorf("value %q is held by two strings", v)
				}
				data[v] = p
			}
		}
	}
	if len(data) != 8 {
		t.Errorf("%d distinct values, want 8", len(data))
	}
}
