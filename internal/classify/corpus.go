package classify

import (
	"delprop/internal/cq"
	"delprop/internal/relation"
)

// CorpusEntry is one representative query for a row of the paper's
// complexity tables, with the expected classification. The hardness rows
// cite classes of queries; each entry carries a canonical member of the
// class (e.g. the triangle query for the triad rows).
type CorpusEntry struct {
	// Name matches the query-class label used in the table row.
	Name string
	// Table is the paper table the row belongs to: "II", "III", "IV", "V".
	Table string
	// Citation is the paper's attribution for the row.
	Citation string
	Query    *cq.Query
	Schemas  cq.SchemaMap
	// WithFDs selects the fd-variant of the decider.
	WithFDs bool
	// ExpectSource/ExpectView are the table's complexity classes; empty
	// means the row is not about that problem.
	ExpectSource Complexity
	ExpectView   Complexity
}

func schemas2(aKey, bKey []int) cq.SchemaMap {
	return cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, aKey),
		"S": relation.MustSchema("S", []string{"a", "b"}, bKey),
	}
}

// Corpus returns the executable rows of Tables II–V: for each row a
// canonical query whose decided properties must yield the table's class.
func Corpus() []CorpusEntry {
	both := []int{0, 1}
	first := []int{0}
	triSchemas := cq.SchemaMap{
		"R": relation.MustSchema("R", []string{"a", "b"}, both),
		"S": relation.MustSchema("S", []string{"a", "b"}, both),
		"T": relation.MustSchema("T", []string{"a", "b"}, both),
	}
	return []CorpusEntry{
		{
			Name:         "project-free & sj-free",
			Table:        "II",
			Citation:     "Buneman et al. 2002",
			Query:        cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)"),
			Schemas:      schemas2(both, both),
			ExpectSource: PTime,
			ExpectView:   PTime,
		},
		{
			Name:     "key-preserving",
			Table:    "II",
			Citation: "Cong et al. 2012",
			Query:    cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z, w)"),
			Schemas: cq.SchemaMap{
				"R": relation.MustSchema("R", []string{"a", "b"}, both),
				"S": relation.MustSchema("S", []string{"a", "b", "c"}, both),
			},
			ExpectSource: PTime,
			ExpectView:   PTime,
		},
		{
			Name:         "triad-free & sj-free",
			Table:        "II",
			Citation:     "Freire et al. 2015",
			Query:        cq.MustParse("Q(x) :- R(x, y), S(y, z)"),
			Schemas:      schemas2(both, both),
			ExpectSource: PTime,
		},
		{
			Name:         "fd-induced-triad-free & sj-free",
			Table:        "II",
			Citation:     "Freire et al. 2015",
			Query:        cq.MustParse("Q(x) :- R(x, y), S(y, z)"),
			Schemas:      schemas2(both, both),
			WithFDs:      true,
			ExpectSource: PTime,
		},
		{
			Name:         "queries with triad (select-free hardness witness)",
			Table:        "III",
			Citation:     "Buneman et al. 2002 / Freire et al. 2015",
			Query:        cq.MustParse("Q(x) :- R(x, y), S(y, z), T(z, x)"),
			Schemas:      triSchemas,
			ExpectSource: NPComplete,
		},
		{
			Name:         "non-key-preserving (triad witness)",
			Table:        "III",
			Citation:     "Cong et al. 2012",
			Query:        cq.MustParse("Q(x) :- R(x, y), S(y, z), T(z, x)"),
			Schemas:      triSchemas,
			ExpectSource: NPComplete,
		},
		{
			Name:         "queries with fd-induced triad",
			Table:        "III",
			Citation:     "Freire et al. 2015",
			Query:        cq.MustParse("Q(x) :- R(x, y), S(y, z), T(z, x)"),
			Schemas:      triSchemas,
			WithFDs:      true,
			ExpectSource: NPComplete,
		},
		{
			Name:       "sj-free with head-domination",
			Table:      "IV",
			Citation:   "Kimelfeld et al. 2012",
			Query:      cq.MustParse("Q(y) :- R(y, x), S(x, z)"),
			Schemas:    schemas2(both, both),
			ExpectView: PTime,
		},
		{
			Name:     "sj-free with fd-head-domination",
			Table:    "IV",
			Citation: "Kimelfeld 2012",
			Query:    cq.MustParse("Q(y1, y2) :- R(y1, x), S(x, y2)"),
			// S keyed on its first column gives the variable FD x→y2,
			// which extends R's atom to cover {y1, y2}.
			Schemas:    schemas2(both, first),
			WithFDs:    true,
			ExpectView: PTime,
		},
		{
			Name:       "non-head-domination (paper §IV.B example)",
			Table:      "V",
			Citation:   "Kimelfeld et al. 2012",
			Query:      cq.MustParse("Q(y1, y2) :- R(y1, x), S(x, y2)"),
			Schemas:    schemas2(both, both),
			ExpectView: NPComplete,
		},
		{
			Name:       "non fd-head-domination",
			Table:      "V",
			Citation:   "Kimelfeld 2012",
			Query:      cq.MustParse("Q(y1, y2) :- R(y1, x), S(x, y2)"),
			Schemas:    schemas2(both, both),
			WithFDs:    true,
			ExpectView: NPComplete,
		},
		{
			Name:         "project-free containing self-join",
			Table:        "II",
			Citation:     "Miao et al. 2016 (LOGSPACE for project-free)",
			Query:        cq.MustParse("Q(x, y, z) :- R(x, y), R(y, z)"),
			Schemas:      schemas2(both, both),
			ExpectSource: PTime,
			ExpectView:   PTime,
		},
		{
			Name:     "star join, key-preserving",
			Table:    "II",
			Citation: "Cong et al. 2012",
			Query:    cq.MustParse("Q(x, a, b, c) :- R(x, a), S(x, b), T(x, c)"),
			Schemas: cq.SchemaMap{
				"R": relation.MustSchema("R", []string{"k", "v"}, []int{0, 1}),
				"S": relation.MustSchema("S", []string{"k", "v"}, []int{0, 1}),
				"T": relation.MustSchema("T", []string{"k", "v"}, []int{0, 1}),
			},
			ExpectSource: PTime,
			ExpectView:   PTime,
		},
		{
			Name:       "selection with constants, key-preserving",
			Table:      "IV",
			Citation:   "Cong et al. 2012",
			Query:      cq.MustParse("Q(x, y) :- R(x, y), S(y, 'c')"),
			Schemas:    schemas2(both, both),
			ExpectView: PTime,
		},
		{
			Name:     "long chain with projected middle (head-dominated per component)",
			Table:    "IV",
			Citation: "Kimelfeld et al. 2012",
			Query:    cq.MustParse("Q(y) :- R(y, x1), S(x1, x2), T(x2, x3)"),
			Schemas: cq.SchemaMap{
				"R": relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
				"S": relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
				"T": relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
			},
			ExpectView: PTime,
		},
		{
			Name:     "two-sided projection (non-head-domination)",
			Table:    "V",
			Citation: "Kimelfeld et al. 2012",
			Query:    cq.MustParse("Q(y1, y2, y3) :- R(y1, x), S(x, y2), T(y3, x)"),
			Schemas: cq.SchemaMap{
				"R": relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
				"S": relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
				"T": relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
			},
			ExpectView: NPComplete,
		},
	}
}

// StaticRows are the table rows whose classes are parameterized-complexity
// or beyond-NP results with no per-query decider in this engine; they are
// reproduced verbatim in the table output.
type StaticRow struct {
	Table      string
	Class      string
	Citation   string
	QueryClass string
}

// StaticCorpus returns those rows.
func StaticCorpus() []StaticRow {
	return []StaticRow{
		{"III", "co-W[1]-complete", "Miao et al. 2018", "conjunctive queries for parameter query size or #variables"},
		{"III", "co-W[SAT]-hard", "Miao et al. 2018", "positive queries for parameter #variables"},
		{"III", "co-W[t]-hard", "Miao et al. 2018", "first-order queries for parameter query size"},
		{"III", "co-W[P]-hard", "Miao et al. 2018", "first-order queries for parameter #variables"},
		{"IV", "FPT", "Kimelfeld et al. 2013", "sj-free conjunctive queries having level-k head-domination"},
		{"V", "NP(k)-complete", "Miao et al. 2017", "conjunctive queries for bounded source deletions"},
		{"V", "ΣP2-complete", "Miao et al. 2016", "conjunctive queries under general settings"},
	}
}
