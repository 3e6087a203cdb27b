// Resilience demonstrates the companion concept the paper's complexity
// tables build on (Freire et al.): the minimum number of source deletions
// that empties a query result, computed in polynomial time for the
// triad-free two-atom case via König's theorem and by exact search
// otherwise — together with the solution explanation report.
package main

import (
	"context"
	"fmt"
	"log"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

func main() {
	w := workload.Fig1()

	// Resilience of Q3 = T1 ⋈ T2: how many source deletions to silence
	// the view entirely?
	q3 := w.Queries[0]
	sol, _, err := core.Resilience(context.Background(), q3, w.DB, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resilience(%s) = %d via %s\n", q3.Name, len(sol.Deleted), sol)
	empty, err := core.VerifyEmpty(q3, w.DB, sol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified empty after deletion: %v\n\n", empty)

	// The triangle query is a triad: resilience needs exponential search.
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
	)
	for _, e := range [][3]string{{"1", "2", "R"}, {"2", "3", "S"}, {"3", "1", "T"}, {"2", "1", "R"}, {"1", "3", "S"}, {"3", "2", "T"}} {
		db.MustInsert(e[2], e[0], e[1])
	}
	tri := cq.MustParse("Tri(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	sol, _, err = core.Resilience(context.Background(), tri, db, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resilience(triangle) = %d via %s (exact fallback)\n\n", len(sol.Deleted), sol)

	// Explanation report for a deletion-propagation solution.
	p, err := core.NewProblem(w.DB, w.Queries[1:], view.NewDeletion(
		view.TupleRef{View: 0, Tuple: relation.Tuple{"John", "TKDE", "XML"}},
	))
	if err != nil {
		log.Fatal(err)
	}
	best, err := (&core.SingleTupleExact{}).Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.ExplainSolution(p, best))
	req, err := core.ExplainRequest(p, p.DeltaRefs()[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(req)
}
