// Package textio implements the plain-text formats the CLI tools consume:
// a database format (relation declarations with starred key attributes
// followed by facts) and a deletion-request format (view tuples named by
// query). Queries use the datalog syntax of package cq directly.
//
// Database file:
//
//	# comment
//	relation T1(AuName*, Journal*)
//	T1(Joe, TKDE)
//	T1(John, TKDE)
//	relation T2(Journal*, Topic*, Papers)
//	T2(TKDE, XML, 30)
//
// Deletion file (query names resolve against the loaded query list):
//
//	Q3(John, XML)
package textio

import (
	"errors"
	"fmt"
	"strings"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// ErrFormat is wrapped by all parse failures.
var ErrFormat = errors.New("textio: format error")

// ParseInstance parses the (database, query program) pair of every front
// end. Errors name the part at fault; a program with no query is malformed.
func ParseInstance(database, program string) (*relation.Instance, []*cq.Query, error) {
	db, err := ParseDatabase(database)
	if err != nil {
		return nil, nil, fmt.Errorf("database: %w", err)
	}
	queries, err := cq.ParseProgram(program)
	if err != nil {
		return nil, nil, fmt.Errorf("queries: %w", err)
	}
	if len(queries) == 0 {
		return nil, nil, errors.New("queries: empty program")
	}
	return db, queries, nil
}

// ParseDatabase parses the database format. The instance's values,
// relation names and attributes are substrings of src; an instance that
// outlives src copies them out with Detach.
func ParseDatabase(src string) (*relation.Instance, error) {
	db := relation.NewInstance()
	var t relation.Tuple // one fact's values; Insert keeps a copy
	rest := src
	for ln, more := 0, true; more; ln++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		if decl, ok := strings.CutPrefix(line, "relation "); ok {
			schema, err := parseSchema(strings.TrimSpace(decl))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			if db.HasRelation(schema.Name) {
				return nil, fmt.Errorf("line %d: %w: duplicate relation %s", ln+1, ErrFormat, schema.Name)
			}
			db.AddRelation(schema)
			continue
		}
		name, inner, err := cutCall(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		r := db.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("line %d: %w: fact for undeclared relation %s", ln+1, ErrFormat, name)
		}
		t = appendArgs(t[:0], inner)
		if err := r.Insert(t); err != nil {
			return nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
	}
	return db, nil
}

// parseSchema parses "T1(AuName*, Journal*)" where * marks key positions.
func parseSchema(s string) (*relation.Schema, error) {
	name, args, err := splitCall[string](s)
	if err != nil {
		return nil, err
	}
	var attrs []string
	var key []int
	for i, a := range args {
		if starred, ok := strings.CutSuffix(a, "*"); ok {
			key = append(key, i)
			a = starred
		}
		attrs = append(attrs, a)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("%w: relation %s declares no key attribute (mark with *)", ErrFormat, name)
	}
	return relation.NewSchema(name, attrs, key)
}

// splitCall parses name(arg1, arg2, ...) rejecting empty args.
func splitCall[T ~string](s string) (string, []T, error) {
	name, inner, err := cutCall(s)
	if err != nil {
		return "", nil, err
	}
	args := appendArgs[T](nil, inner)
	for _, a := range args {
		if a == "" {
			return "", nil, fmt.Errorf("%w: empty argument in %q", ErrFormat, s)
		}
	}
	return name, args, nil
}

// cutCall splits name(inner) into its trimmed name and the text between
// the parentheses.
func cutCall(s string) (name, inner string, err error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("%w: expected name(args) in %q", ErrFormat, s)
	}
	return strings.TrimSpace(s[:open]), s[open+1 : len(s)-1], nil
}

// appendArgs appends the comma-separated arguments of inner, trimmed, to
// dst and returns the extended slice; blank inner text holds none.
func appendArgs[T ~string](dst []T, inner string) []T {
	if strings.TrimSpace(inner) == "" {
		return dst
	}
	for more := true; more; {
		var arg string
		arg, inner, more = strings.Cut(inner, ",")
		dst = append(dst, T(strings.TrimSpace(arg)))
	}
	return dst
}

// ParseDeletions parses deletion requests of the form "QName(v1, v2)" and
// resolves query names to view indexes.
func ParseDeletions(src string, queries []*cq.Query) (*view.Deletion, error) {
	byName := make(map[string]int, len(queries))
	for i, q := range queries {
		byName[q.Name] = i
	}
	del := view.NewDeletion()
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		name, t, err := splitCall[relation.Value](line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		vi, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("line %d: %w: unknown query %s", ln+1, ErrFormat, name)
		}
		del.Add(view.TupleRef{View: vi, Tuple: t})
	}
	return del, nil
}

// FormatDatabase renders an instance back into the database format
// (round-trips with ParseDatabase up to ordering).
func FormatDatabase(db *relation.Instance) string {
	var b strings.Builder
	for _, name := range db.RelationNames() {
		r := db.Relation(name)
		s := r.Schema()
		parts := make([]string, s.Arity())
		for i, a := range s.Attrs {
			if s.IsKeyPos(i) {
				parts[i] = a + "*"
			} else {
				parts[i] = a
			}
		}
		fmt.Fprintf(&b, "relation %s(%s)\n", name, strings.Join(parts, ", "))
		for _, t := range r.Tuples() {
			vals := make([]string, len(t))
			for i, v := range t {
				vals[i] = string(v)
			}
			fmt.Fprintf(&b, "%s(%s)\n", name, strings.Join(vals, ", "))
		}
	}
	return b.String()
}
