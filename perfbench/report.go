package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what a workload hands back to main: the job counts, the
// wrong answers it saw (each one fails the run), the end-to-end metrics
// of the untraced run or the per-layer metrics of the traced run, and a
// few human-readable notes printed above the JSON line.
type result struct {
	attempted, failed int
	wrong             []string
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrongf records a wrong verdict or a failed replay.
func (r *result) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// print writes the notes and a metric table for people, then the one
// JSON object the last line must hold.
func (r *result) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintln(bw, n)
	}
	for _, wr := range r.wrong {
		fmt.Fprintln(bw, "WRONG:", wr)
	}
	if r.attempted > 0 {
		fmt.Fprintf(bw, "fail_ratio: %.4f (%d of %d jobs failed)\n",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		vals[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.wrong) == 0, r.attempted, r.failed, vals})
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(line))
	return bw.Flush()
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies collects per-job latencies. The median and the 90th
// percentile are printed with their sample counts for people; they are
// not gated metrics, because on a shared 2-CPU host their quartile
// spread over runs of verify and daemon reached 37% (see README.md).
type latencies []float64

func (l latencies) note(r *result, workload string) {
	xs := append([]float64(nil), l...)
	p50, p90 := quantile(xs, 0.5), quantile(xs, 0.9)
	beyond := 0
	for _, x := range l {
		if x > p90 {
			beyond++
		}
	}
	r.note("%s: job_p50_ms %.3f ms, job_p90_ms %.3f ms over %d jobs (%d beyond p90)",
		workload, p50, p90, len(l), beyond)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
