// Package reduction implements the paper's hardness constructions as
// executable code: the Theorem 1 linear reduction from Red-Blue Set Cover
// to the view side-effect problem for multiple project-free conjunctive
// queries (illustrated by Fig. 2), and the Theorem 2 reduction from
// Positive-Negative Partial Set Cover to the balanced deletion propagation
// problem. Tests machine-check the cost preservation that the theorems'
// proofs assert, and experiment E6/E14 replays them at scale.
package reduction

import (
	"errors"
	"fmt"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/setcover"
	"delprop/internal/view"
)

// ErrElementUncovered is returned when some element belongs to no set; the
// construction needs every element to have at least one occurrence (a blue
// element in no set makes the cover infeasible, a red one is irrelevant).
var ErrElementUncovered = errors.New("reduction: element occurs in no set")

// VSEInstance is the output of the Theorem 1 construction: a
// deletion-propagation problem together with the correspondence between
// database tuples and the original sets.
type VSEInstance struct {
	Problem *core.Problem
	// SetTuple maps set index → the database tuple encoding that set.
	SetTuple []relation.TupleID
	// RedView / BlueView map element index → view index.
	RedView  []int
	BlueView []int
}

// FromRedBlue builds the Theorem 1 instance. Following the paper: one
// relation T holding one tuple per set (an id column — the key — plus one
// column per element, holding the element name when the set contains it
// and a distinct filler otherwise); for every element e a project-free
// query Q_e joining, via id constants, exactly the tuples whose sets
// contain e, so that the view V_e holds the single "join path" of e; and
// ΔV = the views of the blue elements.
func FromRedBlue(inst *setcover.Instance) (*VSEInstance, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	nCols := 1 + inst.NumRed + inst.NumBlue
	attrs := make([]string, nCols)
	attrs[0] = "id"
	for r := 0; r < inst.NumRed; r++ {
		attrs[1+r] = fmt.Sprintf("r%d", r)
	}
	for b := 0; b < inst.NumBlue; b++ {
		attrs[1+inst.NumRed+b] = fmt.Sprintf("b%d", b)
	}
	db := relation.NewInstance(relation.MustSchema("T", attrs, []int{0}))

	// occurrences[element column] = set indexes containing the element.
	redOcc := make([][]int, inst.NumRed)
	blueOcc := make([][]int, inst.NumBlue)
	setTuples := make([]relation.TupleID, len(inst.Sets))
	for si, s := range inst.Sets {
		t := make(relation.Tuple, nCols)
		t[0] = relation.Value(fmt.Sprintf("set%d", si))
		for c := 1; c < nCols; c++ {
			t[c] = relation.Value(fmt.Sprintf("fill_%d_%d", si, c))
		}
		for _, r := range s.Reds {
			t[1+r] = relation.Value(fmt.Sprintf("red%d", r))
			redOcc[r] = append(redOcc[r], si)
		}
		for _, b := range s.Blues {
			t[1+inst.NumRed+b] = relation.Value(fmt.Sprintf("blue%d", b))
			blueOcc[b] = append(blueOcc[b], si)
		}
		if err := db.Insert("T", t); err != nil {
			return nil, fmt.Errorf("reduction: %w", err)
		}
		setTuples[si] = relation.TupleID{Relation: "T", Tuple: t}
	}

	var queries []*cq.Query
	out := &VSEInstance{SetTuple: setTuples, RedView: make([]int, inst.NumRed), BlueView: make([]int, inst.NumBlue)}
	mkQuery := func(name string, occ []int) (*cq.Query, error) {
		if len(occ) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrElementUncovered, name)
		}
		q := &cq.Query{Name: name}
		for j, si := range occ {
			terms := make([]cq.Term, nCols)
			terms[0] = cq.C(fmt.Sprintf("set%d", si))
			for c := 1; c < nCols; c++ {
				v := fmt.Sprintf("x_%d_%d", j, c)
				terms[c] = cq.V(v)
				q.Head = append(q.Head, cq.V(v))
			}
			q.Body = append(q.Body, cq.Atom{Relation: "T", Terms: terms})
		}
		return q, nil
	}
	for r := 0; r < inst.NumRed; r++ {
		q, err := mkQuery(fmt.Sprintf("Qr%d", r), redOcc[r])
		if err != nil {
			return nil, err
		}
		out.RedView[r] = len(queries)
		queries = append(queries, q)
	}
	for b := 0; b < inst.NumBlue; b++ {
		q, err := mkQuery(fmt.Sprintf("Qb%d", b), blueOcc[b])
		if err != nil {
			return nil, err
		}
		out.BlueView[b] = len(queries)
		queries = append(queries, q)
	}

	skel, err := core.NewProblem(db, queries, nil)
	if err != nil {
		return nil, err
	}
	// ΔV: the single view tuple of every blue view.
	delta := view.NewDeletion()
	for b := 0; b < inst.NumBlue; b++ {
		vi := out.BlueView[b]
		answers := skel.Views[vi].Result.Answers()
		if len(answers) != 1 {
			return nil, fmt.Errorf("reduction: blue view %d has %d answers, want 1", b, len(answers))
		}
		delta.Add(view.TupleRef{View: vi, Tuple: answers[0].Tuple})
	}
	p, err := skel.Specialize(delta)
	if err != nil {
		return nil, err
	}
	// Red weights become preservation weights.
	if inst.RedWeights != nil {
		for r := 0; r < inst.NumRed; r++ {
			vi := out.RedView[r]
			answers := p.Views[vi].Result.Answers()
			if len(answers) == 1 {
				p.SetWeight(view.TupleRef{View: vi, Tuple: answers[0].Tuple}, inst.RedWeight(r))
			}
		}
	}
	out.Problem = p
	return out, nil
}

// CoverToDeletion maps a set-cover solution to the corresponding source
// deletion (delete the tuple of every chosen set).
func (v *VSEInstance) CoverToDeletion(sol setcover.Solution) *core.Solution {
	out := &core.Solution{}
	for _, si := range sol.Chosen {
		out.Deleted = append(out.Deleted, v.SetTuple[si])
	}
	return out
}

// DeletionToCover maps a source deletion back to a set choice.
func (v *VSEInstance) DeletionToCover(sol *core.Solution) setcover.Solution {
	idx := make(map[string]int, len(v.SetTuple))
	for si, id := range v.SetTuple {
		idx[id.Key()] = si
	}
	var chosen []int
	for _, id := range sol.Deleted {
		if si, ok := idx[id.Key()]; ok {
			chosen = append(chosen, si)
		}
	}
	return setcover.Solution{Chosen: chosen}
}

// BalancedInstance is the Theorem 2 construction: a balanced
// deletion-propagation problem from a Positive-Negative Partial Set Cover
// instance.
type BalancedInstance struct {
	Problem  *core.Problem
	SetTuple []relation.TupleID
	PosView  []int
	NegView  []int
}

// FromPNPSC builds the Theorem 2 instance: the same table-of-sets
// construction with one view per element; ΔV is the views of the positive
// elements, and the balanced objective (positives left + negatives
// destroyed) equals the PNPSC cost.
func FromPNPSC(p *setcover.PNPSCInstance) (*BalancedInstance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rb := &setcover.Instance{
		NumRed:  p.NumNeg,
		NumBlue: p.NumPos,
	}
	if p.NegWeights != nil {
		rb.RedWeights = append([]float64(nil), p.NegWeights...)
	}
	for _, s := range p.Sets {
		rb.Sets = append(rb.Sets, setcover.Set{
			Name:  s.Name,
			Reds:  append([]int(nil), s.Negatives...),
			Blues: append([]int(nil), s.Positives...),
		})
	}
	v, err := FromRedBlue(rb)
	if err != nil {
		return nil, err
	}
	return &BalancedInstance{
		Problem:  v.Problem,
		SetTuple: v.SetTuple,
		PosView:  v.BlueView,
		NegView:  v.RedView,
	}, nil
}

// CoverToDeletion maps a PNPSC sub-collection to the source deletion.
func (b *BalancedInstance) CoverToDeletion(sol setcover.Solution) *core.Solution {
	out := &core.Solution{}
	for _, si := range sol.Chosen {
		out.Deleted = append(out.Deleted, b.SetTuple[si])
	}
	return out
}

// Fig2 reproduces the paper's Fig. 2 example: the Red-Blue instance
// C = {C1(r1,b1), C2(r1,b2), C3(r1,b3)} with one red and three blue
// elements.
func Fig2() *setcover.Instance {
	return &setcover.Instance{
		NumRed:  1,
		NumBlue: 3,
		Sets: []setcover.Set{
			{Name: "C1", Reds: []int{0}, Blues: []int{0}},
			{Name: "C2", Reds: []int{0}, Blues: []int{1}},
			{Name: "C3", Reds: []int{0}, Blues: []int{2}},
		},
	}
}
