// Package cq implements conjunctive queries in the datalog style of Section
// II.B of the paper: a query Q(y1..yk) :- T1(..), .., Tq(..) with head
// variables, existential variables and constants, together with the
// syntactic predicates the paper's dichotomies are stated over
// (project-free, self-join-free, key-preserving) and a join evaluator that
// returns every answer with its full provenance (the base tuples on the
// answer's join path).
//
// Evaluate compiles each query once against the instance: atoms in join
// order, variables in numbered slots, and per atom a hash index on the
// positions bound when the join reaches it. A Result stores each
// derivation once, as one int32 row per body atom into the relation
// snapshots it keeps, in exact-size flat arrays; TupleIDs and
// Derivations are built on demand.
package cq

import (
	"errors"
	"fmt"
	"strings"

	"delprop/internal/relation"
)

// Term is one position of an atom or head: either a variable or a constant.
// A Term with Var != "" is a variable; otherwise it is the constant Const.
type Term struct {
	Var   string
	Const relation.Value
}

// V constructs a variable term.
func V(name string) Term { return Term{Var: name} }

// C constructs a constant term.
func C(v string) Term { return Term{Const: relation.Value(v)} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders variables bare and constants single-quoted.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return "'" + string(t.Const) + "'"
}

// Atom is one relational atom T(t1,...,tk) in a query body.
type Atom struct {
	Relation string
	Terms    []Term
}

// String renders the atom in datalog syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Relation + "(" + strings.Join(parts, ",") + ")"
}

// Vars returns the distinct variables of the atom, in first-occurrence
// order.
func (a Atom) Vars() []string { return varsOf([]Atom{a}) }

// varsOf returns the distinct variables of the atoms, in first-occurrence
// order.
func varsOf(atoms []Atom) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Terms {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// Query is a conjunctive query. Head terms must be variables that occur in
// the body (safety); Validate enforces this.
type Query struct {
	Name string
	Head []Term
	Body []Atom
}

// Arity returns the width of the query: the length of its head. This is
// arity(Q) in the paper.
func (q *Query) Arity() int { return len(q.Head) }

// String renders the query in datalog syntax.
func (q *Query) String() string {
	head := make([]string, len(q.Head))
	for i, t := range q.Head {
		head[i] = t.String()
	}
	body := make([]string, len(q.Body))
	for i, a := range q.Body {
		body[i] = a.String()
	}
	return fmt.Sprintf("%s(%s) :- %s", q.Name, strings.Join(head, ","), strings.Join(body, ", "))
}

// HeadVars returns the set of head variables Var_h(Q), in first-occurrence
// order.
func (q *Query) HeadVars() []string { return varsOf([]Atom{{Terms: q.Head}}) }

// BodyVars returns all distinct variables occurring in the body, in
// first-occurrence order.
func (q *Query) BodyVars() []string { return varsOf(q.Body) }

// ExistentialVars returns Var∃(Q): body variables not in the head, in
// first-occurrence order.
func (q *Query) ExistentialVars() []string {
	head := make(map[string]bool)
	for _, v := range q.HeadVars() {
		head[v] = true
	}
	var out []string
	for _, v := range q.BodyVars() {
		if !head[v] {
			out = append(out, v)
		}
	}
	return out
}

// RelationNames returns the distinct relation symbols of the body, in
// first-occurrence order.
func (q *Query) RelationNames() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Body {
		if !seen[a.Relation] {
			seen[a.Relation] = true
			out = append(out, a.Relation)
		}
	}
	return out
}

// IsProjectFree reports whether the query has no existential variables,
// i.e. it is a select-join query. Project-free conjunctive queries are
// always key-preserving (Section II.B).
func (q *Query) IsProjectFree() bool { return len(q.ExistentialVars()) == 0 }

// IsSelectFree reports whether the body contains no constants and no
// repeated variables within an atom — i.e. no selection conditions, the
// "select-free" fragment of Buneman et al.'s hardness rows (Tables III and
// V).
func (q *Query) IsSelectFree() bool {
	for _, a := range q.Body {
		seen := make(map[string]bool, len(a.Terms))
		for _, t := range a.Terms {
			if !t.IsVar() {
				return false
			}
			if seen[t.Var] {
				return false
			}
			seen[t.Var] = true
		}
	}
	return true
}

// IsSelfJoinFree reports whether no relation symbol occurs twice in the
// body (sj-free).
func (q *Query) IsSelfJoinFree() bool {
	seen := make(map[string]bool)
	for _, a := range q.Body {
		if seen[a.Relation] {
			return false
		}
		seen[a.Relation] = true
	}
	return true
}

// SchemaResolver provides relation schemas by name; *relation.Instance
// satisfies it via the adapter below, and static schema maps satisfy it in
// tests.
type SchemaResolver interface {
	SchemaOf(rel string) (*relation.Schema, bool)
}

// SchemaMap is a SchemaResolver over a plain map.
type SchemaMap map[string]*relation.Schema

// SchemaOf implements SchemaResolver.
func (m SchemaMap) SchemaOf(rel string) (*relation.Schema, bool) {
	s, ok := m[rel]
	return s, ok
}

// InstanceSchemas adapts a database instance to a SchemaResolver.
func InstanceSchemas(db *relation.Instance) SchemaResolver {
	return instanceResolver{db}
}

type instanceResolver struct{ db *relation.Instance }

func (r instanceResolver) SchemaOf(rel string) (*relation.Schema, bool) {
	rr := r.db.Relation(rel)
	if rr == nil {
		return nil, false
	}
	return rr.Schema(), true
}

// Validation and property errors.
var (
	// ErrInvalidQuery is wrapped by all Validate failures.
	ErrInvalidQuery = errors.New("cq: invalid query")
)

// Validate checks the query against the schemas: every body relation exists
// with matching arity, the body is non-empty, every head term is a variable
// occurring in the body, and the head is non-empty (each y_i non-empty,
// Section II.B).
func (q *Query) Validate(schemas SchemaResolver) error {
	if q.Name == "" {
		return fmt.Errorf("%w: empty query name", ErrInvalidQuery)
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("%w: query %s has empty body", ErrInvalidQuery, q.Name)
	}
	if len(q.Head) == 0 {
		return fmt.Errorf("%w: query %s has empty head", ErrInvalidQuery, q.Name)
	}
	for _, a := range q.Body {
		s, ok := schemas.SchemaOf(a.Relation)
		if !ok {
			return fmt.Errorf("%w: query %s uses unknown relation %s", ErrInvalidQuery, q.Name, a.Relation)
		}
		if len(a.Terms) != s.Arity() {
			return fmt.Errorf("%w: query %s atom %s has arity %d, schema wants %d", ErrInvalidQuery, q.Name, a, len(a.Terms), s.Arity())
		}
	}
	bodyVars := make(map[string]bool)
	for _, v := range q.BodyVars() {
		bodyVars[v] = true
	}
	for _, t := range q.Head {
		if !t.IsVar() {
			return fmt.Errorf("%w: query %s has constant %s in head", ErrInvalidQuery, q.Name, t)
		}
		if !bodyVars[t.Var] {
			return fmt.Errorf("%w: query %s head variable %s does not occur in body (unsafe)", ErrInvalidQuery, q.Name, t.Var)
		}
	}
	return nil
}

// KeyVars returns the distinct key variables of the query: variables placed
// at a key attribute position of some atom, in first-occurrence order.
func (q *Query) KeyVars(schemas SchemaResolver) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Body {
		s, ok := schemas.SchemaOf(a.Relation)
		if !ok {
			return nil, fmt.Errorf("%w: unknown relation %s", ErrInvalidQuery, a.Relation)
		}
		if len(a.Terms) != s.Arity() {
			return nil, fmt.Errorf("%w: atom %s arity mismatch", ErrInvalidQuery, a)
		}
		for _, p := range s.Key {
			t := a.Terms[p]
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out, nil
}

// IsKeyPreserving reports whether the query is key-preserving under the
// given schemas (Section II.B): every atom's relation has a key (guaranteed
// by the relation package) and every key variable is a head variable.
func (q *Query) IsKeyPreserving(schemas SchemaResolver) (bool, error) {
	keyVars, err := q.KeyVars(schemas)
	if err != nil {
		return false, err
	}
	head := make(map[string]bool)
	for _, v := range q.HeadVars() {
		head[v] = true
	}
	for _, v := range keyVars {
		if !head[v] {
			return false, nil
		}
	}
	return true, nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{Name: q.Name, Head: append([]Term(nil), q.Head...)}
	c.Body = make([]Atom, len(q.Body))
	for i, a := range q.Body {
		c.Body[i] = Atom{Relation: a.Relation, Terms: append([]Term(nil), a.Terms...)}
	}
	return c
}
