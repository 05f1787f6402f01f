package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public entry point it calls. Times are nanoseconds since the run
// started; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Job        string `json:"job"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// layer is the module a span name belongs to: the text before the
// first dot ("retime.min_period" is in "retime").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0 time.Time
	// concurrent callers make per-span allocation deltas meaningless;
	// spans then record none.
	concurrent bool
	mu         sync.Mutex
	spans      []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// allocSample reads the process's cumulative heap allocation. The
// delta over a span is that span's allocation only because the callers
// a trace covers run one call at a time.
func allocSample() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// scope places new spans under a parent and a job id.
type scope struct {
	tr     *tracer
	job    string
	parent int
}

func (t *tracer) root(job string) scope { return scope{tr: t, job: job, parent: -1} }

// do runs f inside a span named name. The span's children are the
// spans f opens through the scope it is given.
func (s scope) do(name string, f func(scope) error) error {
	if s.tr == nil {
		return f(s)
	}
	t := s.tr
	var a0 uint64
	if !t.concurrent {
		a0 = allocSample()
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: s.parent, Job: s.job,
		Start: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	err := f(scope{tr: t, job: s.job, parent: id})
	end := time.Since(t.t0).Nanoseconds()
	var alloc uint64
	if !t.concurrent {
		alloc = allocSample() - a0
	}
	t.mu.Lock()
	t.spans[id].End = end
	t.spans[id].AllocBytes = alloc
	t.mu.Unlock()
	return err
}

// write stores the spans as JSON lines, one per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes folds the spans into per-name busy time and per-layer self
// time and allocation. A span's self time is its duration minus the part
// covered by its children; children of one parent never overlap here,
// because each caller opens them one after another.
type layerTimes struct {
	busy  map[string]time.Duration // by span name
	calls map[string]int           // by span name
	self  map[string]time.Duration // by layer
	alloc map[string]uint64        // by layer, self allocation
}

func (t *tracer) fold() layerTimes {
	lt := layerTimes{busy: map[string]time.Duration{}, calls: map[string]int{},
		self: map[string]time.Duration{}, alloc: map[string]uint64{}}
	childDur := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.AllocBytes
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		lt.busy[s.Name] += time.Duration(d)
		lt.calls[s.Name]++
		lt.self[s.layer()] += time.Duration(d - childDur[i])
		if s.AllocBytes > childAlloc[i] {
			lt.alloc[s.layer()] += s.AllocBytes - childAlloc[i]
		}
	}
	return lt
}

// tracePath is where a run's spans go: inside the checkout's build
// directory, named after the workload and seed.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-s%d.jsonl", workload, seed))
}
