package repair_test

import (
	"fmt"
	"math/rand"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/repair"
)

// Example runs a one-round cleaning session against a planted error.
func Example() {
	db := relation.NewInstance(
		relation.MustSchema("Emp", []string{"name", "dept"}, []int{0}),
		relation.MustSchema("Dept", []string{"dept", "floor"}, []int{0}),
	)
	db.MustInsert("Emp", "ada", "eng")
	db.MustInsert("Emp", "bob", "ops") // planted: bob's row is wrong
	db.MustInsert("Dept", "eng", "3")
	db.MustInsert("Dept", "ops", "1")

	corrupt := []relation.TupleID{{Relation: "Emp", Tuple: relation.Tuple{"bob", "ops"}}}
	s := &repair.Session{
		DB:      db,
		Queries: []*cq.Query{cq.MustParse("Where(n, d, f) :- Emp(n, d), Dept(d, f)")},
		Oracle:  repair.PlantedOracle(corrupt),
		Mode:    repair.Batch,
		Rng:     rand.New(rand.NewSource(1)),
	}
	reports, err := s.Run(5, 10)
	if err != nil {
		panic(err)
	}
	deleted := 0
	for _, r := range reports {
		deleted += len(r.Deleted)
	}
	fmt.Printf("rounds: %d, deleted: %d, ada still present: %v\n",
		len(reports), deleted,
		db.Contains(relation.TupleID{Relation: "Emp", Tuple: relation.Tuple{"ada", "eng"}}))
	// Output: rounds: 2, deleted: 1, ada still present: true
}
