// Command benchrunner regenerates the paper's tables, figures and theorem
// validations (experiments E1–E20 of DESIGN.md), optionally writing a
// structured BENCH_*.json capture for cmd/benchdiff.
//
// Usage:
//
//	benchrunner                          # run every experiment
//	benchrunner -exp E8                  # run one experiment
//	benchrunner -list                    # list experiments
//	benchrunner -json BENCH_1.json -repeat 5
//	                                     # timed capture: 5 reps/experiment
//	benchrunner -profile cpu -profile-dir out
//	                                     # per-experiment pprof profiles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"delprop/internal/bench"
	"delprop/internal/benchkit"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment by ID (E1..E20)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write a structured benchkit capture (BENCH_*.json) to this path")
	repeat := flag.Int("repeat", 1, "timed repetitions per experiment (first prints output, the rest are silent)")
	profile := flag.String("profile", "", "write per-experiment pprof profiles: cpu or heap")
	profileDir := flag.String("profile-dir", ".", "directory for -profile output files")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Artifact)
		}
		return
	}
	if *repeat < 1 {
		*repeat = 1
	}
	switch *profile {
	case "", "cpu", "heap":
	default:
		fmt.Fprintf(os.Stderr, "unknown -profile %q; want cpu or heap\n", *profile)
		os.Exit(2)
	}
	run := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			os.Exit(2)
		}
		run = []bench.Experiment{e}
	}
	capture := benchkit.NewCapture(*repeat)
	for _, e := range run {
		fmt.Printf("### %s — %s\n\n", e.ID, e.Artifact)
		res, err := runExperiment(e, *repeat, *profile, *profileDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		capture.Experiments = append(capture.Experiments, res)
	}
	if *jsonOut != "" {
		if err := capture.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "capture invalid: %v\n", err)
			os.Exit(1)
		}
		if err := benchkit.WriteFile(*jsonOut, capture); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote capture (%d experiments, repeat=%d) to %s\n",
			len(capture.Experiments), *repeat, *jsonOut)
	}
	// Guarantee violations are correctness bugs; fail the run even without
	// -json so plain invocations catch them too.
	if v := capture.Violations(); len(v) > 0 {
		for _, viol := range v {
			fmt.Fprintf(os.Stderr, "guarantee violated: %s %s [%s] ratio %.3f > %.3f\n",
				viol.Experiment, viol.Quality.Solver, viol.Quality.Case,
				viol.Quality.Ratio, viol.Quality.Guarantee)
		}
		os.Exit(1)
	}
}

// runExperiment executes one experiment `repeat` times, timing each
// repetition and reading runtime.MemStats around it for allocation
// deltas. The first repetition prints to stdout and feeds the recorder;
// later repetitions only contribute wall-time and allocation samples.
func runExperiment(e bench.Experiment, repeat int, profile, profileDir string) (benchkit.ExperimentResult, error) {
	res := benchkit.ExperimentResult{ID: e.ID, Artifact: e.Artifact}
	rec := &benchkit.Recorder{}
	if profile == "cpu" {
		f, err := profileFile(profileDir, "cpu", e.ID)
		if err != nil {
			return res, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return res, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var allocs, bytes uint64
	for i := 0; i < repeat; i++ {
		out, r := io.Writer(os.Stdout), rec
		if i > 0 {
			out, r = io.Discard, nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := e.Run(out, r)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return res, err
		}
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		res.WallNs = append(res.WallNs, float64(wall.Nanoseconds()))
	}
	res.AllocsPerRun = int64(allocs / uint64(repeat))
	res.BytesPerRun = int64(bytes / uint64(repeat))
	res.Search = rec.Search()
	res.Quality = rec.QualityRecords()
	res.Summarize()
	if profile == "heap" {
		f, err := profileFile(profileDir, "heap", e.ID)
		if err != nil {
			return res, err
		}
		runtime.GC()
		err = pprof.Lookup("heap").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// profileFile creates <dir>/<kind>_<expID>.pprof, making dir as needed.
func profileFile(dir, kind, expID string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, fmt.Sprintf("%s_%s.pprof", kind, expID)))
}
