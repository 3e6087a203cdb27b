package testonly

// Kind is why an allowlisted declaration may be used only by tests. There
// are exactly three; anything else is deleted or moved into a _test.go
// file.
type Kind int

const (
	// PaperConstruction is a construction of the source paper that tests
	// check but no solve path calls. Its reason cites the theorem, claim
	// or section.
	PaperConstruction Kind = iota + 1
	// SharedOracle is a reference oracle or fixture that the tests of two
	// or more packages share. Its reason names those packages.
	SharedOracle
	// LoadModuleAPI is an API that only the separate bench/load module
	// calls (ROADMAP item 6 retires it together with that caller).
	LoadModuleAPI
)

// Entry admits one declaration, named as "import/path.Name" or
// "import/path.Type.Method".
type Entry struct {
	Object string
	Kind   Kind
	Reason string
}

// Allow is the repository's allowlist. Entries are added with their
// reason and never loosened into patterns.
var Allow = []Entry{
	{"delprop/internal/reduction.VSEInstance.CoverToDeletion", PaperConstruction,
		"Theorem 1: a Red-Blue cover maps to a deletion of equal side-effect"},
	{"delprop/internal/reduction.VSEInstance.DeletionToCover", PaperConstruction,
		"Theorem 1: the converse map, from a deletion back to a cover"},
	{"delprop/internal/reduction.FromPNPSC", PaperConstruction,
		"Theorem 2: the balanced instance built from Positive-Negative Partial Set Cover"},
	{"delprop/internal/reduction.BalancedInstance.CoverToDeletion", PaperConstruction,
		"Theorem 2: a PNPSC sub-collection maps to a deletion of equal balanced cost"},
	{"delprop/internal/hypergraph.Hypergraph.JoinTree", PaperConstruction,
		"§IV.B join trees of α-acyclic hypergraphs; the building block of ROADMAP item 7"},
	{"delprop/internal/core.SourceSingleQueryExact", PaperConstruction,
		"Tables II–III: the PTime single-query key-preserving source side-effect case (Cong et al.)"},

	{"delprop/internal/view.Survives", SharedOracle,
		"the definition of answer survival, the oracle for Index.Killed; view, core and lineage tests"},
	{"delprop/internal/view.DeletedSet", SharedOracle,
		"builds the set Survives reads; view and lineage tests"},
	{"delprop/internal/cq.MustEvaluate", SharedOracle,
		"evaluates a query known valid; cq and view tests"},
	{"delprop/internal/workload.SelfJoin", SharedOracle,
		"self-join path workload; core, cq, server and workload tests"},
	{"delprop/internal/workload.SampleWeights", SharedOracle,
		"seeded preservation weights; core and workload tests"},
	{"delprop/internal/setcover.Instance.Feasible", SharedOracle,
		"whether a cover covers every blue; setcover and reduction (Theorem 1) tests"},
	{"delprop/internal/setcover.PNPSCInstance.Cost", SharedOracle,
		"the PNPSC objective; setcover and reduction (Theorem 2) tests"},
	{"delprop/internal/telemetry.Fields.Get", SharedOracle,
		"reads one event payload field; telemetry, server and cmd/delpropd tests"},
	{"delprop/internal/server.Server.Sampler", SharedOracle,
		"ticks the series sampler deterministically; server and cmd/delprop tests"},

	{"delprop/internal/core.Problem.EvaluateByReevaluation", LoadModuleAPI,
		"bench/load verify.go checks answers with it (ROADMAP item 6)"},
	{"delprop/internal/relation.Instance.Contains", LoadModuleAPI,
		"bench/load verify.go checks deleted tuples with it (ROADMAP item 6)"},
	{"delprop/internal/textio.FormatDatabase", LoadModuleAPI,
		"bench/load workloads.go renders request bodies with it (ROADMAP item 6)"},
	{"delprop/internal/session.Entry.DualBound", LoadModuleAPI,
		"a pass-through only bench/load replay.go calls (ROADMAP item 6)"},
	{"delprop/internal/session.DefaultMaxBoundCerts", LoadModuleAPI,
		"the argument bench/load replay.go passes to Entry.DualBound (ROADMAP item 6)"},
}
