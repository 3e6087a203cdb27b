package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"delprop/internal/admission"
)

// POST /solve/batch: solve many instances in one request through a
// bounded worker pool. Each item is a full InstanceRequest solved by the
// same engine as POST /solve (per-item deadline, supervised goroutine,
// trace, metrics, incumbent degradation), so a batch of n items behaves
// exactly like n sequential solves — just faster. The batch occupies one
// admission slot, but every item is charged against the requesting
// tenant's rate budget, so a 64-item batch costs 64 tokens rather than
// the one its envelope used to; items beyond the budget fail with the
// overloaded code while the rest still run (partial-result semantics).
// BatchWorkers bounds how many items run at once inside the batch, and
// the tenant's MaxConcurrent clamps it further. When the batch deadline
// fires or the client disconnects, in-flight items are cancelled
// (degrading to incumbents where solvers carry them) and not-yet-started
// items are reported skipped, so the caller always gets the partial
// results that were paid for.

// BatchRequest is the POST /solve/batch payload.
type BatchRequest struct {
	// Items are the instances to solve, answered in input order. Each
	// item's own Timeout field bounds that item (clamped server-side).
	Items []InstanceRequest `json:"items"`
	// Timeout bounds the whole batch ("30s"); clamped to the server's
	// MaxSolveTimeout. Empty means no batch-level bound beyond the items'.
	Timeout string `json:"timeout,omitempty"`
	// Workers caps concurrently-solving items; 0 means the server default,
	// and the server's MaxBatchWorkers is the ceiling.
	Workers int `json:"workers,omitempty"`
}

// BatchItemError is one failed item's error (same code taxonomy as the
// single-solve endpoint).
type BatchItemError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// BatchItemResult pairs one input item with its outcome. Exactly one of
// Response/Error is set unless the item was skipped.
type BatchItemResult struct {
	// Index is the item's position in the request, so results stay
	// attributable even though they complete out of order.
	Index    int             `json:"index"`
	Response *SolveResponse  `json:"response,omitempty"`
	Error    *BatchItemError `json:"error,omitempty"`
	// Skipped marks an item never started because the batch deadline fired
	// or the client went away first.
	Skipped bool `json:"skipped,omitempty"`
}

// BatchResponse reports the whole batch, items in input order.
type BatchResponse struct {
	RequestID string            `json:"requestId,omitempty"`
	Items     []BatchItemResult `json:"items"`
	Completed int               `json:"completed"`
	Failed    int               `json:"failed"`
	Skipped   int               `json:"skipped"`
	// Partial is set when the batch stopped before every item ran.
	Partial bool `json:"partial,omitempty"`
	// Workers is the pool size the batch actually ran with.
	Workers int `json:"workers"`
}

// batchWorkers resolves the requested pool size against the server cap
// and the item count (no point spinning up idle workers).
func (a *api) batchWorkers(requested, items int) int {
	if requested <= 0 {
		requested = a.cfg.MaxBatchWorkers
	}
	return max(1, min(requested, a.cfg.MaxBatchWorkers, items))
}

func (a *api) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("items: empty batch"), reqID)
		return
	}
	if len(req.Items) > a.cfg.MaxBatchItems {
		writeErr(w, http.StatusBadRequest, codeBatchTooLarge,
			fmt.Errorf("items: batch of %d exceeds the server limit of %d", len(req.Items), a.cfg.MaxBatchItems), reqID)
		return
	}
	ctx := r.Context()
	// Items get their own deadlines (solveDeadline, tenant caps included);
	// an empty batch timeout adds no batch-level bound on top.
	d, err := a.parseTimeout(req.Timeout)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Tenant accounting: the envelope was admitted by the middleware, but
	// each item charges one rate token so batches cannot tunnel past the
	// tenant's budget. Items the bucket cannot cover fail (not skip) with
	// the overloaded code; the covered items still run. refused maps each
	// uncovered item to its Retry-After.
	refused := make(map[int]time.Duration)
	tenant := ""
	var pol *admission.TenantPolicy
	if info := admission.InfoFromContext(ctx); info != nil {
		tenant = info.Tenant
		_, pol, _ = a.cfg.Admission.Resolve(tenant)
		for i := range req.Items {
			if ok, retry := a.cfg.Admission.Charge(tenant); !ok {
				refused[i] = retry
				a.observeAdmission(reqID, tenant, "shed-"+admission.RuleRateLimit)
			}
		}
	}

	workers := a.batchWorkers(req.Workers, len(req.Items))
	if pol != nil && pol.MaxConcurrent > 0 && workers > pol.MaxConcurrent {
		// A tenant capped at k concurrent requests must not fan a single
		// batch out wider than k workers.
		workers = pol.MaxConcurrent
	}
	results := make([]BatchItemResult, len(req.Items))
	jobs := make(chan int, len(req.Items))
	for i := range req.Items {
		jobs <- i
	}
	close(jobs)

	busy := a.metrics.Gauge(metricBatchWorkersBusy,
		"Batch worker goroutines currently solving an item.", nil)
	workerMs := a.metrics.Counter(metricBatchWorkerMs,
		"Cumulative milliseconds batch workers spent solving items (worker utilization).", nil)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				// Once the batch context is done, drain the queue as skipped:
				// the response must still account for every item.
				if ctx.Err() != nil {
					results[idx] = BatchItemResult{Index: idx, Skipped: true}
					continue
				}
				if retry, ok := refused[idx]; ok {
					results[idx] = BatchItemResult{Index: idx, Error: &BatchItemError{
						Error: fmt.Sprintf("tenant %q rate budget exhausted (retry in %v)",
							tenant, retry.Round(time.Millisecond)),
						Code: codeOverloaded}}
					continue
				}
				busy.Add(1)
				itemStart := time.Now()
				itemID := fmt.Sprintf("%s.%d", reqID, idx)
				resp, serr := a.solveInstance(ctx, itemID, &req.Items[idx])
				workerMs.Add(time.Since(itemStart).Milliseconds())
				busy.Add(-1)
				if serr != nil {
					results[idx] = BatchItemResult{Index: idx,
						Error: &BatchItemError{Error: serr.err.Error(), Code: serr.code}}
					continue
				}
				results[idx] = BatchItemResult{Index: idx, Response: resp}
			}
		}()
	}
	wg.Wait()

	resp := BatchResponse{RequestID: reqID, Items: results, Workers: workers}
	for i := range results {
		switch {
		case results[i].Skipped:
			resp.Skipped++
		case results[i].Error != nil:
			resp.Failed++
		default:
			resp.Completed++
		}
	}
	resp.Partial = resp.Skipped > 0
	a.observeBatch(resp, time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}
