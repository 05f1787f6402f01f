// Command perfbench is seqver's whole-flow benchmark. It runs one of
// three workloads through the program's public entry points, checks
// every verdict, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as one JSON object on its last output line.
// README.md in this directory says why each workload exists and which
// layer each metric belongs to.
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"seqver/internal/cec"
)

// A run builds its inputs at least setupMinReps times, and again while
// the builds have taken less than setupBudget in all; setup_s is the
// median build time.
const (
	setupMinReps = 3
	setupBudget  = time.Second
)

type config struct {
	seed    int64
	window  time.Duration
	trace   bool
	spansTo string
}

// cecOptions are the combinational checker's options for every check a
// run makes: the defaults, with the simulation seed taken from the run's
// seed.
func cecOptions(seed int64) cec.Options { return cec.Options{Seed: seed} }

func main() {
	workload := flag.String("workload", "", "flow, verify or daemon")
	seed := flag.Int64("seed", 1, "input seed; the same seed makes the same circuits")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1: a traced run that reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, spansTo: tracePath(*workload, *seed)}
	var run func(config) (*result, error)
	switch *workload {
	case "flow":
		run = runFlow
	case "verify":
		run = runVerify
	case "daemon":
		run = runDaemon
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want flow, verify or daemon)\n", *workload)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(res.wrong) > 0 {
		os.Exit(1)
	}
}

// setUp builds a workload's inputs repeatedly (see setupMinReps) and
// returns the last build with the median build time in seconds.
func setUp[T any](build func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	begin := time.Now()
	for i := 0; i < setupMinReps || time.Since(begin) < setupBudget; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// measure runs passes over a workload's fixed job list for the window.
// It always runs one pass, and starts another only while the last pass
// would still end inside the window, so a run's length stays near the
// window whatever a pass costs. pass returns the wall time of its job
// list; measure returns those times in seconds.
func measure(window time.Duration, pass func() (time.Duration, error)) ([]float64, error) {
	start := time.Now()
	var walls []float64
	for {
		d, err := pass()
		if err != nil {
			return nil, err
		}
		walls = append(walls, d.Seconds())
		if time.Since(start)+d > window {
			return walls, nil
		}
	}
}

// addCommon appends the metrics every workload reports in the untraced
// run: set-up time, median pass wall time, and peak resident memory.
func addCommon(r *result, setup float64, walls []float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("setup_s", setup, "s")
	r.add("wall_s", median(walls), "s")
	r.add("peak_rss_mb", rss, "MB")
	r.note("passes: %d, wall_s per pass: %v", len(walls), walls)
	return nil
}
