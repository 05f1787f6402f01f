// Command benchdiff compares two BENCH_cec.json files (see cmd/cecbench
// and internal/benchfmt) and gates on performance regressions: worker
// rows compare min ns/op, budget rungs compare mean ns/op, and any row
// slowing down by more than the noise threshold fails the diff. Worker
// rows carrying allocation numbers additionally compare bytes/op under
// -alloc-threshold — a separate, tighter gate, because allocation
// volume is nearly deterministic where wall clock is noisy. It refuses
// to compare files recorded under different GOMAXPROCS — those numbers
// measure different machines, not different code.
//
// Usage:
//
//	benchdiff [-threshold 1.25] [-alloc-threshold 1.10]
//	          [-allow-procs-mismatch] [-json] old.json new.json
//
// Exit codes: 0 no regression; 1 at least one row regressed past a
// threshold (time or allocation); 2 usage errors, unreadable files, or
// refused comparisons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"seqver/internal/benchfmt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code lifted out for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", benchfmt.DefaultThreshold,
		"new/old ratio above which a slowdown is a regression")
	allocThreshold := fs.Float64("alloc-threshold", benchfmt.DefaultAllocThreshold,
		"new/old bytes-per-op ratio above which allocation growth is a regression")
	allowProcs := fs.Bool("allow-procs-mismatch", false,
		"compare files recorded under different GOMAXPROCS anyway")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold R] [-alloc-threshold R] [-allow-procs-mismatch] [-json] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := benchfmt.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	head, err := benchfmt.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	diff, err := benchfmt.Compare(base, head, benchfmt.DiffOptions{
		Threshold:          *threshold,
		AllocThreshold:     *allocThreshold,
		AllowProcsMismatch: *allowProcs,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff: refused:", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diff); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	} else {
		printTable(stdout, diff)
	}
	if diff.Regressions > 0 || diff.AllocRegressions > 0 {
		if diff.Regressions > 0 {
			fmt.Fprintf(stderr, "benchdiff: %d regression(s) past %.2fx\n", diff.Regressions, diff.Threshold)
		}
		if diff.AllocRegressions > 0 {
			fmt.Fprintf(stderr, "benchdiff: %d allocation regression(s) past %.2fx\n",
				diff.AllocRegressions, diff.AllocThreshold)
		}
		return 1
	}
	return 0
}

func printTable(w io.Writer, d *benchfmt.Diff) {
	fmt.Fprintf(w, "circuit %s, engine %s, threshold %.2fx\n", d.Circuit, d.Engine, d.Threshold)
	fmt.Fprintf(w, "%-14s %14s %14s %7s  %s\n", "row", "old/op", "new/op", "ratio", "verdict")
	for _, delta := range d.Deltas {
		verdict := "ok"
		if delta.Regression {
			verdict = "REGRESSION"
		} else if delta.Ratio > 0 && delta.Ratio < 1/d.Threshold {
			verdict = "improved"
		}
		if delta.AllocRegression {
			verdict += fmt.Sprintf("  ALLOC REGRESSION %dB -> %dB (%.2fx)",
				delta.OldBytesOp, delta.NewBytesOp, delta.AllocRatio)
		} else if delta.AllocRatio > 0 {
			verdict += fmt.Sprintf("  alloc %.2fx", delta.AllocRatio)
		}
		if delta.Note != "" {
			verdict += "  (" + delta.Note + ")"
		}
		fmt.Fprintf(w, "%-14s %14v %14v %6.2fx  %s\n",
			delta.Key,
			time.Duration(delta.OldNSOp).Round(time.Microsecond),
			time.Duration(delta.NewNSOp).Round(time.Microsecond),
			delta.Ratio, verdict)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(w, "%-14s (not compared: %s)\n", "-", m)
	}
}
