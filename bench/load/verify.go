package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"delprop/internal/core"
	"delprop/internal/relation"
	"delprop/internal/server"
	"delprop/internal/textio"
)

// reevalSample is how many load-generator results per run have their
// answers re-evaluated in full. Re-evaluation costs about as much as
// the solve did, so checking every answer would take as long as the load
// itself; the sample is spread evenly over the run, and the route
// agreement pass re-evaluates its answers too.
const reevalSample = 200

// checkAnswer verifies one solve answer against an in-process copy of its
// instance. Every answer must be undegraded and feasible, name only
// tuples of the database, and agree with itself: with unit weights the
// side effect counts the collateral, and the lower bound may not exceed
// it. With reeval, the side effect must also equal a full
// re-evaluation of the queries on the database minus the deletion.
func checkAnswer(in *instance, deletions string, resp *server.SolveResponse, reeval bool) error {
	switch {
	case resp.Degraded:
		return fmt.Errorf("%s: degraded answer (rule %s)", in.name, resp.DegradedRule)
	case !resp.Feasible || resp.BadRemaining != 0:
		return fmt.Errorf("%s: infeasible answer", in.name)
	case resp.SideEffect != float64(len(resp.Collateral)) || resp.Balanced != resp.SideEffect:
		return fmt.Errorf("%s: side effect %v, balanced %v, %d collateral tuples", in.name, resp.SideEffect, resp.Balanced, len(resp.Collateral))
	case resp.LowerBound != nil && *resp.LowerBound > resp.SideEffect+1e-9:
		return fmt.Errorf("%s: lower bound %v exceeds side effect %v", in.name, *resp.LowerBound, resp.SideEffect)
	}
	sol := &core.Solution{Deleted: make([]relation.TupleID, len(resp.Deleted))}
	for i, t := range resp.Deleted {
		tup := make(relation.Tuple, len(t.Values))
		for j, v := range t.Values {
			tup[j] = relation.Value(v)
		}
		sol.Deleted[i] = relation.TupleID{Relation: t.Relation, Tuple: tup}
		if !in.skel.DB.Contains(sol.Deleted[i]) {
			return fmt.Errorf("%s: deletes %s, which is not in the database", in.name, sol.Deleted[i])
		}
	}
	if !reeval {
		return nil
	}
	delta, err := textio.ParseDeletions(deletions, in.skel.Queries)
	if err != nil {
		return err
	}
	p, err := in.skel.Specialize(delta)
	if err != nil {
		return err
	}
	rep, err := p.EvaluateByReevaluation(sol)
	if err != nil {
		return err
	}
	if !rep.Feasible {
		return fmt.Errorf("%s: answer claims feasible, re-evaluation leaves %d requested tuples", in.name, rep.BadRemaining)
	}
	if rep.SideEffect != resp.SideEffect {
		return fmt.Errorf("%s: side effect %v, re-evaluation gives %v", in.name, resp.SideEffect, rep.SideEffect)
	}
	return nil
}

// answers decodes a 200 body into the solve answers it carries, one per
// item of the entry, and the worker pool size that served them.
func answers(r route, body []byte, n int) ([]*server.SolveResponse, int, error) {
	if r != routeBatch {
		var resp server.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, 0, err
		}
		return []*server.SolveResponse{&resp}, 1, nil
	}
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, 0, err
	}
	if len(br.Items) != n {
		return nil, 0, fmt.Errorf("batch: %d results for %d items", len(br.Items), n)
	}
	out := make([]*server.SolveResponse, n)
	for i, it := range br.Items {
		if it.Response == nil {
			msg := "skipped"
			if it.Error != nil {
				msg = it.Error.Code + ": " + it.Error.Error
			}
			return nil, 0, fmt.Errorf("batch item %d: %s", i, msg)
		}
		out[i] = it.Response
	}
	return out, max(br.Workers, 1), nil
}

// check is the verdict on one load-generator result. serverMs is the
// time the daemon reports spending in solve phases (phaseMs), divided by
// the batch pool size for a batch; sideEffect sums the answers' side
// effects.
type check struct {
	serverMs   float64
	sideEffect float64
	err        error
}

// checkResult verifies every answer in one load-generator result.
func checkResult(s *stream, res result, reeval bool) check {
	if res.err != nil {
		return check{err: res.err}
	}
	if res.status != http.StatusOK {
		return check{err: fmt.Errorf("status %d: %s", res.status, bytes.TrimSpace(res.body))}
	}
	e := s.at(res.entry)
	got, workers, err := answers(s.route, res.body, len(e))
	if err != nil {
		return check{err: err}
	}
	var c check
	for k, it := range e {
		if err := checkAnswer(s.insts[it.inst], it.deletions, got[k], reeval); err != nil {
			return check{err: fmt.Errorf("entry %d: %w", res.entry, err)}
		}
		for _, phase := range got[k].PhaseMs {
			c.serverMs += phase / float64(workers)
		}
		c.sideEffect += got[k].SideEffect
	}
	return c
}

// verifyResults checks every result on workers goroutines, re-evaluating
// an evenly spread sample of reevalSample of them.
func verifyResults(s *stream, results []result, workers int) []check {
	out := make([]check, len(results))
	every := max(1, (len(results)+reevalSample-1)/reevalSample)
	parallel(len(results), workers, func(i int) {
		out[i] = checkResult(s, results[i], i%every == 0)
	})
	return out
}

// parallel calls f(0) … f(n-1) on workers goroutines.
func parallel(n, workers int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// canonical holds the answer fields that must not depend on the route
// that served a request.
type canonical struct {
	Solver       string             `json:"solver"`
	Deleted      []server.TupleJSON `json:"deleted"`
	Feasible     bool               `json:"feasible"`
	SideEffect   float64            `json:"sideEffect"`
	Collateral   []string           `json:"collateral"`
	BadRemaining int                `json:"badRemaining"`
	Balanced     float64            `json:"balanced"`
	LowerBound   *float64           `json:"lowerBound"`
}

func canonicalJSON(r *server.SolveResponse) []byte {
	b, _ := json.Marshal(canonical{r.Solver, r.Deleted, r.Feasible, r.SideEffect, r.Collateral, r.BadRemaining, r.Balanced, r.LowerBound})
	return b
}

// agreeCount is how many leading requests per instance are sent both
// through the workload's own route and through the other route.
const agreeCount = 32

// agreement re-sends the first agreeCount requests of every instance
// through the workload's route and a second route — cold /solve for warm
// and batch workloads, a warm session for cold ones — after timing has
// stopped, on workers connections. The workload's answer is re-evaluated,
// and the other route's answer must agree with it byte for byte on the
// canonical fields. It returns the number of requests compared, the
// number that failed, the first failure, and a digest of the canonical
// answers in stream order, which is the same for cold-kp and warm-kp at
// one seed.
func agreement(d *daemon, s *stream, workers int) (compared, failed int, first error, digest string) {
	other := routeCold
	if s.route == routeCold {
		if err := d.register(s.insts); err != nil {
			return 0, 1, err, ""
		}
		other = routeWarm
	}
	// Take leading entries until every instance has agreeCount items.
	var entries [][]int // per entry, the indexes of the items compared
	seen := make([]int, len(s.insts))
	for i, n := 0, 0; n < agreeCount*len(s.insts); i++ {
		var ks []int
		for k, it := range s.at(i) {
			if seen[it.inst] < agreeCount {
				seen[it.inst]++
				ks = append(ks, k)
				n++
			}
		}
		entries = append(entries, ks)
	}
	canon := make([][][]byte, len(entries))
	errs := make([]error, len(entries))
	parallel(len(entries), workers, func(i int) {
		e := s.at(i)
		own, err := solveVia(d, s, s.route, e)
		for _, k := range entries[i] {
			it := e[k]
			in := s.insts[it.inst]
			if err == nil {
				err = checkAnswer(in, it.deletions, own[k], true)
			}
			var alt []*server.SolveResponse
			if err == nil {
				alt, err = solveVia(d, s, other, []item{it})
			}
			if err != nil {
				errs[i] = fmt.Errorf("entry %d item %d: %w", i, k, err)
				return
			}
			a, b := canonicalJSON(own[k]), canonicalJSON(alt[0])
			if !bytes.Equal(a, b) {
				errs[i] = fmt.Errorf("entry %d item %d: routes disagree:\n  %s\n  %s", i, k, a, b)
				return
			}
			canon[i] = append(canon[i], a)
		}
	})
	h := sha256.New()
	for i, ks := range entries {
		compared += len(ks)
		if errs[i] != nil {
			failed++
			if first == nil {
				first = errs[i]
			}
		}
		for _, a := range canon[i] {
			h.Write(a)
		}
	}
	return compared, failed, first, hex.EncodeToString(h.Sum(nil))[:16]
}

// solveVia sends entry e through route r and decodes its answers.
func solveVia(d *daemon, s *stream, r route, e []item) ([]*server.SolveResponse, error) {
	path, body, err := request(r, s.insts, e, d.sessions, len(e))
	if err != nil {
		return nil, err
	}
	status, out, err := d.post(path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	got, _, err := answers(r, out, len(e))
	return got, err
}
