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
			{Blues: []int{0, 1}, Reds: []int{0}},    // cheap
			{Blues: []int{0, 1}, Reds: []int{0, 1}}, // costly
		},
	}
	sol, err := inst.Exact(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("chosen: set", sol.Chosen[0], "cost:", inst.Cost(sol))
	// Output: chosen: set 0 cost: 1
}

// ExamplePNPSCInstance shows the balanced trade-off: covering the positive
// costs one negative, leaving it uncovered costs one positive — both
// optimal at cost 1.
func ExamplePNPSCInstance() {
	p := &setcover.PNPSCInstance{Inst: &setcover.Instance{
		NumBlue: 1, // the positive
		NumRed:  1, // the negative
		Sets:    []setcover.Set{{Blues: []int{0}, Reds: []int{0}}},
	}}
	sol, err := p.Exact(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", p.Cost(sol))
	// Output: cost: 1
}
