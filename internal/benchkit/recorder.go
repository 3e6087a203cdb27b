package benchkit

import "sync"

// Recorder collects the structured samples of one experiment run: search
// counters aggregated across its solves and per-instance quality records.
// Experiments receive one through Experiment.Run and report into it; a
// nil *Recorder is a valid no-op sink, so experiments never guard on
// capture being enabled (text-only runs and tests pass nil). Safe for
// concurrent use.
//
//delprop:nilsafe
type Recorder struct {
	mu      sync.Mutex
	search  SearchCounters  //delprop:guardedby mu
	quality []QualityRecord //delprop:guardedby mu
}

// Quality appends one quality record.
func (r *Recorder) Quality(q QualityRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.quality = append(r.quality, q)
	r.mu.Unlock()
}

// AddSearch accumulates one solve's search counters.
func (r *Recorder) AddSearch(s SearchCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.search.add(s)
	r.mu.Unlock()
}

// Search returns the aggregated counters.
func (r *Recorder) Search() SearchCounters {
	if r == nil {
		return SearchCounters{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.search
}

// QualityRecords returns a copy of the recorded quality points in report
// order.
func (r *Recorder) QualityRecords() []QualityRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]QualityRecord(nil), r.quality...)
}
