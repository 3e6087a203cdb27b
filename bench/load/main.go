// Command load is delprop's end-to-end benchmark. It starts delpropd's
// handler in this process on a real 127.0.0.1 listener, drives one
// workload's traffic at it through a closed loop and then an open loop,
// checks every answer, and prints the metrics, ending with one JSON line:
//
//	go run . -workload cold-kp -seed 1 -seconds 20 -trace 0
//
// -seconds is the measured time, half closed loop and half open loop,
// after a warm-up of a tenth of it. -trace 1 also replays the workload's
// first requests traced in-process and reports per-layer metrics in place
// of the end-to-end ones. Without -workload every workload runs in turn.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
}

// setupRuns is how many times set-up is repeated; setup_s is the median.
const setupRuns = 9

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (cold-kp, warm-kp, warm-np, batch-tiny); empty runs all")
	seed := fs.Int64("seed", 1, "seed of the deletion request streams")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload, half closed loop and half open loop")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced replay's spans are written to as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	specs := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		specs = []spec{w}
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
	bad := 0
	for _, w := range specs {
		out, err := runWorkload(w, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := out.print(stdout, opts.trace); err != nil {
			return err
		}
		if !out.correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed verification", bad)
	}
	return nil
}

// metric is one reported number. Layer metrics are reported with -trace 1
// and end-to-end metrics without it.
type metric struct {
	name  string
	value float64
	unit  string
	layer bool
}

type outcome struct {
	header    map[string]any
	metrics   []metric
	notes     []string
	attempted int
	failed    int
	firstErr  error
	correct   bool
}

func (o *outcome) add(name string, value float64, unit string, layer bool) {
	o.metrics = append(o.metrics, metric{name, value, unit, layer})
}

// print writes the header, one line per metric, the notes, and the JSON
// result line.
func (o *outcome) print(w io.Writer, layers bool) error {
	hdr, err := json.Marshal(o.header)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# run %s\n", hdr)
	values := map[string]any{}
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%-22s %14.6f %s\n", m.name, m.value, m.unit)
		if m.layer == layers {
			values[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if o.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", o.firstErr)
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.correct, "attempted": o.attempted, "failed": o.failed, "metrics": values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func runWorkload(w spec, opts options) (*outcome, error) {
	total := time.Duration(opts.seconds * float64(time.Second))
	warmup, closedDur, openDur := total/10, total/2, total/2
	conns := runtime.NumCPU()
	o := &outcome{header: map[string]any{
		"workload": w.name, "seed": opts.seed, "numCPU": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc": envOr("GOGC", "100"), "go": runtime.Version(), "commit": commit(),
		"warmupS": warmup.Seconds(), "closedS": closedDur.Seconds(), "openS": openDur.Seconds(),
		"openRateRps": w.rate, "connections": conns, "setupRuns": setupRuns,
	}}
	var phases []string
	mark := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.2fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	compute, memory := machineProbes()
	phase("probes")

	insts := make([]*instance, len(w.instances))
	for i, is := range w.instances {
		in, err := newInstance(is)
		if err != nil {
			return nil, err
		}
		insts[i] = in
	}
	s := newStream(w.route, insts, opts.seed)

	d, setups, err := setUp(w.route, insts, conns)
	if err != nil {
		return nil, err
	}
	phase("setup")

	keep, err := newArena()
	if err != nil {
		d.close()
		return nil, err
	}
	defer keep.free()
	send := httpSender(d, s, keep, conns)
	warm := closedLoop(send, s.take, conns, warmup)
	// Generate the stream for the timed loops now, from the warm-up rate
	// with room to spare, so the heap does not grow while timing.
	s.extend(int(s.cursor.Load()) + int(2*float64(len(warm))/warmup.Seconds()*closedDur.Seconds()+w.rate*openDur.Seconds()) + 100)
	phase("warmup")

	cpu0 := cpuTime()
	closed := closedLoop(send, s.take, conns, closedDur)
	open := openLoop(send, s.take, conns, w.rate, openDur)
	cpu := cpuTime() - cpu0
	phase("load")

	// Answers are checked after timing stops.
	all := append(append([]result(nil), closed...), open...)
	checks := verifyResults(s, all, conns)
	compared, agreeFailed, agreeErr, digest := agreement(d, s, conns)
	phase("verify")

	// The daemon's live heap: the difference between a reading with it
	// running and one after it is stopped and unreferenced, so the
	// benchmark's own memory cancels out.
	withServer := liveHeap()
	released := d.released
	d.close()
	d, send = nil, nil
	awaitRelease(released)
	heapMB := float64(withServer-liveHeap()) / (1 << 20)

	o.attempted = len(all) + compared
	o.failed = agreeFailed
	o.firstErr = agreeErr
	var effect float64
	var solves, okClosed, itemsClosed int
	var overhead, lat, late []float64
	for i, c := range checks {
		res := all[i]
		if c.err != nil {
			o.failed++
			if o.firstErr == nil {
				o.firstErr = c.err
			}
		} else {
			effect += c.sideEffect
			solves += len(s.at(res.entry))
		}
		if i < len(closed) {
			if c.err == nil {
				okClosed++
				itemsClosed += len(s.at(res.entry))
				overhead = append(overhead, ms(res.latency())-c.serverMs)
			}
			continue
		}
		l := ms(res.latency())
		if c.err != nil {
			l = math.Inf(1) // a failed request misses every latency limit
		}
		lat = append(lat, l)
		late = append(late, ms(res.start.Sub(res.intended)))
	}
	o.correct = o.failed == 0
	sort.Float64s(lat)
	sort.Float64s(late)
	closedSpan := elapsed(closed)
	if p, v, n, ok := tail(lat); ok {
		o.notes = append(o.notes, fmt.Sprintf("open-loop tail: p%g = %.3f ms over n = %d", p, v, n))
	}
	o.notes = append(o.notes,
		fmt.Sprintf("error ratio %d/%d = %g", o.failed, o.attempted, float64(o.failed)/float64(max(o.attempted, 1))),
		fmt.Sprintf("answer digest %s over %d route-agreement checks", digest, compared))

	o.add("side_effect_mean", effect/float64(max(solves, 1)), "tuples", false)
	o.add("server_heap_mb", heapMB, "MB", false)
	o.add("setup_s", median(setups), "s", false)
	// Throughput and latency drift with the host's speed by more than a
	// bound can tolerate (README.md, "Spread"), so they are reported with
	// the layer metrics, unbounded.
	o.add("throughput_rps", float64(okClosed)/closedSpan, "1/s", true)
	o.add("latency_p50_ms", percentile(lat, 50), "ms", true)
	o.add("latency_p95_ms", percentile(lat, 95), "ms", true)
	o.add("http.overhead_ms", median(overhead), "ms", true)
	o.add("batch.items_per_s", float64(itemsClosed)/closedSpan, "1/s", true)
	o.add("loadgen.late_p95_ms", percentile(late, 95), "ms", true)
	o.add("proc.cpu_ms_per_req", ms(cpu)/float64(max(len(all), 1)), "ms", true)
	o.add("machine.compute_ms", compute, "ms", true)
	o.add("machine.memory_ms", memory, "ms", true)

	if opts.trace {
		st, err := replay(s)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, l := range layers {
			sum += st.ms[l]
		}
		for _, l := range layers {
			o.add(l+".ms", st.ms[l], "ms", true)
			o.add(l+".allocs", st.allocs[l], "count", true)
			o.notes = append(o.notes, fmt.Sprintf("layer %-10s %5.1f%% of layer time", l, 100*st.ms[l]/sum))
		}
		o.add("views.tuples", st.viewTuples, "count", true)
		o.add("solve.nodes", st.solveNodes, "count", true)
		o.notes = append(o.notes, fmt.Sprintf("traced replay: %d solves from the first %d requests", st.solves, replayCount))
		if opts.traceOut != "" {
			if err := writeSpans(opts.traceOut, st.spans); err != nil {
				return nil, err
			}
		}
		phase("replay")
	}
	o.notes = append(o.notes, "phases: "+strings.Join(phases, ", "))
	return o, nil
}

// setUp starts the daemon and registers the warm sessions setupRuns times,
// and returns the last daemon and the seconds each set-up took.
func setUp(r route, insts []*instance, conns int) (*daemon, []float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(conns); err != nil {
			return nil, nil, err
		}
		if r == routeWarm {
			if err := d.register(insts); err != nil {
				d.close()
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return d, setups, nil
}

// elapsed returns the seconds from the first send to the last answer.
func elapsed(rs []result) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	first, last := rs[0].start, rs[0].end
	for _, r := range rs {
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	return last.Sub(first).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// probeSink keeps the probe loops from being optimized away.
var probeSink atomic.Uint64

// machineProbes times a fixed arithmetic loop and a fixed map loop, the
// median of three runs each, so that a slow or contended host can be
// told apart from a slower program.
func machineProbes() (computeMs, memoryMs float64) {
	var c, m []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		x := uint64(r)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		c = append(c, ms(time.Since(t)))
		t = time.Now()
		mp := make(map[uint64]uint64)
		for i := uint64(0); i < 200_000; i++ {
			mp[i*2654435761] = i
		}
		for i := uint64(0); i < 200_000; i++ {
			x += mp[i*2654435761]
		}
		m = append(m, ms(time.Since(t)))
		probeSink.Add(x)
	}
	return median(c), median(m)
}
