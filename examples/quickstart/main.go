// Quickstart: build a database, define key-preserving conjunctive queries,
// materialize the views, request a view deletion, and propagate it back to
// the source with minimum side-effect.
package main

import (
	"context"
	"fmt"
	"log"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

func main() {
	// 1. Schema with keys (starred in the paper's notation): every
	// relation must declare one.
	db := relation.NewInstance(
		relation.MustSchema("Emp", []string{"name", "dept"}, []int{0}),
		relation.MustSchema("Dept", []string{"dept", "floor"}, []int{0}),
	)
	db.MustInsert("Emp", "ada", "eng")
	db.MustInsert("Emp", "bob", "eng")
	db.MustInsert("Emp", "cyd", "ops")
	db.MustInsert("Dept", "eng", "3")
	db.MustInsert("Dept", "ops", "1")

	// 2. Key-preserving conjunctive queries in datalog syntax.
	queries := []*cq.Query{
		cq.MustParse("Where(n, d, f) :- Emp(n, d), Dept(d, f)"),
		cq.MustParse("Staff(n, d) :- Emp(n, d)"),
	}

	// 3. The problem: delete (bob, eng, 3) from the first view.
	delta := view.NewDeletion(view.TupleRef{
		View:  0,
		Tuple: relation.Tuple{"bob", "eng", "3"},
	})
	p, err := core.NewProblem(db, queries, delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("‖V‖=%d view tuples, ‖ΔV‖=%d, key-preserving=%v\n",
		p.TotalViewSize(), p.DeltaLen(), p.IsKeyPreserving())

	// 4. Solve with the paper's general-case algorithm (Claim 1) and with
	// the exact reference.
	for _, solver := range []core.Solver{&core.RedBlue{}, &core.RedBlueExact{}} {
		sol, err := solver.Solve(context.Background(), p)
		if err != nil {
			log.Fatal(err)
		}
		rep := p.Evaluate(sol)
		fmt.Printf("%-16s %s  side-effect=%v  collateral=%v\n",
			solver.Name(), sol, rep.SideEffect, rep.Collateral)
	}
	// Two optima exist, both with side-effect 1: deleting Emp(bob,eng)
	// also kills Staff(bob,eng); deleting Dept(eng,3) also kills
	// Where(ada,eng,3). The exact solver confirms 1 is the minimum.
}
