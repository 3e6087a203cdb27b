package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/server"
	"delprop/internal/textio"
	"delprop/internal/workload"
)

// route says which delpropd endpoint a workload drives.
type route int

const (
	routeCold  route = iota // POST /solve: one full instance per request
	routeWarm               // POST /sessions/{id}/solve against sessions registered at set-up
	routeBatch              // POST /solve/batch: batchItems full instances per request
)

// batchItems is the number of instances in each batch-tiny request.
const batchItems = 8

// spec is one row of the workload table. Rates are constants: the open
// loop must offer the same traffic on every commit, whatever the machine
// manages, or a slower server would simply be asked for less.
type spec struct {
	name      string
	route     route
	rate      float64 // open-loop requests per second (a batch is one request)
	instances []instanceSpec
}

// instanceSpec is one database and query set, and how many view tuples
// each of its deletion requests names. Databases use a fixed generator
// seed; the run seed only picks the deletion requests, so runs with
// different seeds ask for the same kind of work.
type instanceSpec struct {
	name      string
	deletions int
	build     func() *workload.Workload
}

var (
	chainInst = instanceSpec{"chain", 4, func() *workload.Workload {
		return workload.Chain(workload.ChainConfig{Seed: 7, Length: 6, Domain: 4, RowsPerRelation: 200, Queries: 5, MaxSpan: 3})
	}}
	bibInst = instanceSpec{"bibliography", 4, func() *workload.Workload {
		return workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 60, Journals: 12, Topics: 8, PapersPerAuthor: 4, TopicsPerJournal: 3})
	}}
	pivotInst = instanceSpec{"pivot", 8, func() *workload.Workload {
		return workload.Pivot(workload.PivotConfig{Seed: 7, Roots: 200, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true})
	}}
	npInst = instanceSpec{"bibliography-np", 8, func() *workload.Workload {
		w := workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 200, Journals: 30, Topics: 12, PapersPerAuthor: 4, TopicsPerJournal: 3})
		w.Queries = []*cq.Query{
			cq.MustParse("Pub(x, y, z) :- Author(x, y), Journal(y, z, w)"),
			cq.MustParse("PubT(x, z) :- Author(x, y), Journal(y, z, w)"),
		}
		return w
	}}
	fig1Inst  = instanceSpec{"fig1", 2, workload.Fig1}
	bib12Inst = instanceSpec{"bibliography-12", 2, func() *workload.Workload {
		return workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 12, Journals: 6, Topics: 4, PapersPerAuthor: 3, TopicsPerJournal: 2})
	}}
)

// workloads is the benchmark's workload table. README.md gives the reason
// for each row and the layers each one stresses; open-loop rates sit at
// roughly a third of the closed-loop throughput on two CPUs.
var workloads = []spec{
	{name: "cold-kp", route: routeCold, rate: 25, instances: []instanceSpec{chainInst, bibInst, pivotInst}},
	{name: "warm-kp", route: routeWarm, rate: 35, instances: []instanceSpec{chainInst, bibInst, pivotInst}},
	{name: "warm-np", route: routeWarm, rate: 35, instances: []instanceSpec{npInst}},
	{name: "batch-tiny", route: routeBatch, rate: 120, instances: []instanceSpec{fig1Inst, bib12Inst}},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// instance is a generated instance in both forms: the text delpropd
// receives and an in-process skeleton parsed from that same text, which
// the stream samples deletions from and the verifier re-evaluates
// answers against.
type instance struct {
	name      string
	db        string
	queries   string
	deletions int
	skel      *core.Problem
}

func newInstance(s instanceSpec) (*instance, error) {
	w := s.build()
	lines := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		lines[i] = q.String()
	}
	in := &instance{name: s.name, db: textio.FormatDatabase(w.DB), queries: strings.Join(lines, "\n"), deletions: s.deletions}
	db, err := textio.ParseDatabase(in.db)
	if err != nil {
		return nil, fmt.Errorf("instance %s: %w", s.name, err)
	}
	qs, err := cq.ParseProgram(in.queries)
	if err != nil {
		return nil, fmt.Errorf("instance %s: %w", s.name, err)
	}
	if in.skel, err = core.NewProblem(db, qs, nil); err != nil {
		return nil, fmt.Errorf("instance %s: %w", s.name, err)
	}
	return in, nil
}

// sample draws one deletion request in the textio deletion format.
func (in *instance) sample(seed int64) string {
	del := workload.SampleDeletion(in.skel.Views, in.deletions, seed)
	var b strings.Builder
	for _, ref := range del.Refs() {
		vals := make([]string, len(ref.Tuple))
		for i, v := range ref.Tuple {
			vals[i] = string(v)
		}
		fmt.Fprintf(&b, "%s(%s)\n", in.skel.Queries[ref.View].Name, strings.Join(vals, ", "))
	}
	return b.String()
}

// item is one instance solve within a request.
type item struct {
	inst      int // index into the workload's instances
	deletions string
}

// stream is a workload's request sequence. Entry i is a pure function of
// the seed and i; entries are generated on first use, in order, and no
// entry repeats, so no request is ever served from a cache that an
// earlier identical request filled.
type stream struct {
	route  route
	insts  []*instance
	cursor atomic.Int64 // next entry for the load generator

	mu      sync.Mutex
	rng     *rand.Rand
	seen    map[uint64]bool // hashes of the entries so far
	entries [][]item
}

func newStream(r route, insts []*instance, seed int64) *stream {
	return &stream{route: r, insts: insts, rng: rand.New(rand.NewSource(seed)), seen: map[uint64]bool{}}
}

// take reserves the next unsent entry.
func (s *stream) take() int { return int(s.cursor.Add(1) - 1) }

// at returns entry i.
func (s *stream) at(i int) []item {
	s.extend(i + 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[i]
}

// extend generates the entries below n that do not exist yet. Cold and
// warm entries cycle round-robin over the instances; a batch entry
// alternates instances item by item.
func (s *stream) extend(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.entries) < n {
		var e []item
		for {
			e = e[:0]
			if s.route == routeBatch {
				for k := 0; k < batchItems; k++ {
					inst := k % len(s.insts)
					e = append(e, item{inst, s.insts[inst].sample(s.rng.Int63())})
				}
			} else {
				inst := len(s.entries) % len(s.insts)
				e = append(e, item{inst, s.insts[inst].sample(s.rng.Int63())})
			}
			if key := entryKey(e); !s.seen[key] {
				s.seen[key] = true
				break
			}
		}
		s.entries = append(s.entries, e)
	}
}

// entryKey hashes an entry up to the order of deletions within each item.
// A collision only skips a fresh entry, which keeps the stream
// repeat-free.
func entryKey(e []item) uint64 {
	h := fnv.New64a()
	for _, it := range e {
		lines := strings.Split(strings.TrimSpace(it.deletions), "\n")
		sort.Strings(lines)
		fmt.Fprintf(h, "%d:%s;", it.inst, strings.Join(lines, "|"))
	}
	return h.Sum64()
}

// request renders entry e as the path and JSON body delpropd receives on
// route r. sessions holds the warm session id of each instance; workers
// is the pool size a batch asks for.
func request(r route, insts []*instance, e []item, sessions []string, workers int) (string, []byte, error) {
	var path string
	var v any
	switch r {
	case routeCold:
		in := insts[e[0].inst]
		path, v = "/solve", server.InstanceRequest{Database: in.db, Queries: in.queries, Deletions: e[0].deletions}
	case routeWarm:
		path, v = "/sessions/"+sessions[e[0].inst]+"/solve", server.SessionSolveRequest{Deletions: e[0].deletions}
	case routeBatch:
		items := make([]server.InstanceRequest, len(e))
		for k, it := range e {
			in := insts[it.inst]
			items[k] = server.InstanceRequest{Database: in.db, Queries: in.queries, Deletions: it.deletions}
		}
		path, v = "/solve/batch", server.BatchRequest{Items: items, Workers: workers}
	}
	body, err := json.Marshal(v)
	return path, body, err
}
