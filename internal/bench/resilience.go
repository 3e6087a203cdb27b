package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
)

// runResilience is experiment E16, the extension study for the triad
// dichotomy the paper builds on (Freire et al., Tables II–III): the
// resilience of the triad-free two-atom chain query scales polynomially
// via the bipartite vertex-cover algorithm, while the triangle query (a
// triad) falls back to exponential search — the dichotomy made visible as
// wall-clock.
func runResilience(w io.Writer, _ *benchkit.Recorder) error {
	t := &Table{
		Title:   "E16 (extension): resilience — triad-free chain vs triangle (triad)",
		Headers: []string{"rows/rel", "chain |D|", "chain resilience", "chain time", "triangle |D|", "triangle resilience", "triangle time"},
	}
	for _, rows := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(rows)))
		// fill inserts up to n random binary tuples over dom values into
		// each named relation, in order.
		fill := func(db *relation.Instance, n, dom int, rels ...string) {
			for _, rel := range rels {
				for inserted, attempts := 0, 0; inserted < n && attempts < n*10; attempts++ {
					tup := relation.Tuple{
						relation.Value(fmt.Sprintf("v%d", rng.Intn(dom))),
						relation.Value(fmt.Sprintf("v%d", rng.Intn(dom))),
					}
					if err := db.Insert(rel, tup); err == nil {
						inserted++
					}
				}
			}
		}
		// Chain: R(a,b) ⋈ S(b,c) — triad-free, PTime via König.
		chainDB := relation.NewInstance(
			relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
		)
		fill(chainDB, rows, max(rows/2, 2), "R", "S")
		chainQ := cq.MustParse("Q(a, b, c) :- R(a, b), S(b, c)")
		t0 := time.Now()
		chainN, chainSol, err := core.Resilience(context.Background(), chainQ, chainDB, 0)
		if err != nil {
			return err
		}
		chainTime := time.Since(t0)
		if ok, err := core.VerifyEmpty(chainQ, chainDB, chainSol); err != nil || !ok {
			return fmt.Errorf("chain witness invalid (rows=%d): %v", rows, err)
		}

		// Triangle: R ⋈ S ⋈ T cyclically — a triad, exponential fallback.
		// Kept small via a tighter domain so the exact search stays
		// feasible.
		triDB := relation.NewInstance(
			relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
		)
		fill(triDB, max(rows/4, 3), 3, "R", "S", "T")
		triQ := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
		t0 = time.Now()
		triN, triSol, err := core.Resilience(context.Background(), triQ, triDB, 30)
		if err != nil {
			return err
		}
		triTime := time.Since(t0)
		if ok, err := core.VerifyEmpty(triQ, triDB, triSol); err != nil || !ok {
			return fmt.Errorf("triangle witness invalid (rows=%d): %v", rows, err)
		}
		t.Add(fmt.Sprint(rows), fmt.Sprint(chainDB.Size()), fmt.Sprint(chainN), chainTime.String(),
			fmt.Sprint(triDB.Size()), fmt.Sprint(triN), triTime.String())
	}
	t.Fprint(w)
	fmt.Fprintln(w, "shape to check: the triad-free chain stays fast as it grows (PTime per Freire et al.); the triangle needs the exponential fallback.")
	fmt.Fprintln(w)
	return nil
}
