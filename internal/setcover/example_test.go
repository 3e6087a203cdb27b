package setcover_test

import (
	"context"
	"fmt"

	"delprop/internal/setcover"
)

// Example solves a tiny Red-Blue Set Cover instance: cover both blues
// while touching as little red weight as possible.
func Example() {
	inst := &setcover.Instance{
		NumRed:  2,
		NumBlue: 2,
		Sets: []setcover.Set{
			{Name: "cheap", Blues: []int{0, 1}, Reds: []int{0}},
			{Name: "costly", Blues: []int{0, 1}, Reds: []int{0, 1}},
		},
	}
	sol, err := inst.Exact(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("chosen:", inst.Sets[sol.Chosen[0]].Name, "cost:", inst.Cost(sol))
	// Output: chosen: cheap cost: 1
}

// ExamplePNPSCInstance shows the balanced trade-off: covering the positive
// costs one negative, leaving it uncovered costs one positive — both
// optimal at cost 1.
func ExamplePNPSCInstance() {
	p := &setcover.PNPSCInstance{
		NumPos: 1,
		NumNeg: 1,
		Sets:   []setcover.PNSet{{Positives: []int{0}, Negatives: []int{0}}},
	}
	sol, err := p.Exact(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", p.Cost(sol))
	// Output: cost: 1
}
