// Command classify reports the structural properties and complexity
// classification of conjunctive queries against a schema, reproducing the
// per-query deciders behind the paper's Tables II–V and the paper's own
// multi-query classification.
//
// Usage:
//
//	classify -db db.txt -queries q.dl
//
// The database file only needs the relation declarations; facts are
// ignored for classification.
//
// Each query is minimized to its core (classify.AnalyzeMinimized) before
// the single-query classes are decided. POST /classify on delpropd
// classifies the query as written instead, since minimizing is an
// exponential homomorphism search with no deadline. The two can differ:
// over relation R(A, B*), Q(x) :- R(x, y), R(x, z) minimizes to a
// self-join-free core that is PTime on both sides here, while /classify
// answers unknown for both (docs/FORMATS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"delprop/internal/classify"
	"delprop/internal/cq"
	"delprop/internal/textio"
)

func main() {
	dbPath := flag.String("db", "", "database (or schema) file")
	qPath := flag.String("queries", "", "datalog query program")
	flag.Parse()
	if *dbPath == "" || *qPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dbPath, *qPath); err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
}

func run(dbPath, qPath string) error {
	dbSrc, err := os.ReadFile(dbPath)
	if err != nil {
		return err
	}
	qSrc, err := os.ReadFile(qPath)
	if err != nil {
		return err
	}
	db, queries, err := textio.ParseInstance(string(dbSrc), string(qSrc))
	if err != nil {
		return err
	}
	schemas := cq.InstanceSchemas(db)
	for _, q := range queries {
		deps, err := classify.VariableFDs(q, schemas)
		if err != nil {
			return err
		}
		props, core, err := classify.AnalyzeMinimized(q, schemas, deps)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", q)
		if len(core.Body) != len(q.Body) {
			fmt.Printf("  minimized to core: %s\n", core)
		}
		fmt.Printf("  project-free=%v select-free=%v sj-free=%v key-preserving=%v\n",
			props.ProjectFree, props.SelectFree, props.SelfJoinFree, props.KeyPreserving)
		fmt.Printf("  head-domination=%v fd-head-domination=%v triad=%v fd-induced-triad=%v\n",
			props.HeadDomination, props.FDHeadDomination, props.HasTriad, props.HasFDInducedTriad)
		fmt.Printf("  source side-effect: %s\n", classify.SourceSideEffect(props, true))
		fmt.Printf("  view side-effect:   %s\n", classify.ViewSideEffect(props, true))
	}
	res, err := classify.MultiQuery(queries, schemas)
	if err != nil {
		return err
	}
	fmt.Printf("\nmulti-query view side-effect (this paper):\n")
	fmt.Printf("  all project-free=%v all key-preserving=%v forest=%v\n",
		res.AllProjectFree, res.AllKeyPreserving, res.Forest)
	fmt.Printf("  class: %s\n", res.Class)
	for _, g := range res.Guarantees {
		fmt.Printf("  - %s\n", g)
	}
	return nil
}
