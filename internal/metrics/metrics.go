// Package metrics is the aggregated-telemetry layer of the verifier: a
// zero-dependency registry of named counters, gauges, and log₂-bucketed
// latency histograms, designed to survive across runs of a long-lived
// process and to be scraped live over HTTP (see DebugMux) in the
// Prometheus text exposition format.
//
// It complements internal/obs, which records *per-run event streams*:
// obs answers "what did this run do, in order", metrics answers "what
// has this process done, in aggregate". Pipeline facts reach a registry
// by one path: Sink folds a tracer's event stream into it — span
// durations become the seqver_phase_seconds histogram, counts become
// counters, gauges become gauges — so every obs-instrumented phase gets
// metrics for free. Only the process's own machinery (the daemon's job
// queue, cache and journal, the profile ring, the runtime collector)
// holds handles directly.
//
// Nil receivers are no-ops everywhere: a nil registry hands out nil
// handles, and every lookup and update on them is one nil check and
// zero allocations (TestNoRegistryZeroAlloc), the same contract obs
// pins for the absent tracer.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing value. The nil counter is the
// "metrics off" counter: Add returns immediately.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Negative deltas are dropped (counters are
// monotonic by contract; a buggy caller must not corrupt the series).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrary sampled level. The nil gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by delta (for up/down resource gauges).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log₂ buckets: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
// 64 buckets cover every non-negative int64 — at nanosecond resolution
// that spans sub-ns to ~292 years, so no observation is ever clipped.
const histBuckets = 64

// Histogram is a log₂-bucketed distribution of int64 observations
// (nanoseconds, by convention, for *_seconds families — the exposition
// layer rescales). Observations and reads are lock-free; a scrape
// concurrent with observations sees a consistent-enough snapshot (each
// bucket is individually atomic). The nil histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf returns the bucket index for v: the smallest i with
// v <= 2^i (v <= 0 lands in bucket 0).
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. Negative samples count as zero (a clock
// step mid-span must not corrupt the distribution).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// returning the upper bound of the bucket holding the target rank — a
// conservative (over-)estimate with log₂ resolution. Returns 0 with no
// observations or on a nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Summary returns the p50/p90/p99 estimates — the triple the CLIs and
// the flight-recorder post-mortems print.
func (h *Histogram) Summary() (p50, p90, p99 float64) {
	return h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
}

// bucketUpper is the inclusive upper bound of bucket i (2^i, saturating
// at MaxInt64 for the last bucket).
func bucketUpper(i int) float64 {
	if i >= 63 {
		return float64(math.MaxInt64)
	}
	return float64(int64(1) << uint(i))
}

// HistogramSnapshot is an immutable copy of a histogram's state, for
// computing quantiles over a *window*: snapshot at two instants, Sub
// them, and query the delta — the cumulative histogram never resets,
// so this is the only way to ask "what was p99 over the last minute".
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram's current state. Each bucket is read
// atomically; a snapshot concurrent with observations is
// consistent-enough, matching the scrape contract. A nil histogram
// yields the zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Sub returns the windowed delta s - prev (observations recorded after
// prev was taken). Negative per-bucket deltas — possible only when the
// snapshots are torn against heavy concurrent writes — clamp to zero.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range s.Buckets {
		if n := s.Buckets[i] - prev.Buckets[i]; n > 0 {
			d.Buckets[i] = n
			d.Count += n
		}
	}
	if sum := s.Sum - prev.Sum; sum > 0 {
		d.Sum = sum
	}
	return d
}

// Quantile estimates the q-quantile from the snapshot, with the same
// conservative bucket-upper-bound semantics as Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// snapshot returns (cumulative count per bucket upper bound, count, sum)
// for the exposition writer, skipping empty buckets.
type bucketPoint struct {
	upper float64 // inclusive upper bound, in observation units
	cum   int64
}

func (h *Histogram) points() []bucketPoint {
	var out []bucketPoint
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		out = append(out, bucketPoint{upper: bucketUpper(i), cum: cum})
	}
	return out
}

// series is one (family, label value) time series.
type series struct {
	labelVal string
	ctr      *Counter
	gauge    *Gauge
	hist     *Histogram
}

// family is one named metric family with an optional single label key.
type family struct {
	name     string
	help     string
	kind     Kind
	labelKey string // "" for unlabeled families
	series   map[string]*series
}

// Registry holds metric families by name. The nil registry is the
// "metrics off" registry: every lookup returns a nil handle, costing one
// nil check and no allocations — the same contract obs pins for the
// absent tracer.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns (creating as needed) the series for name/labelVal,
// refusing with nil when the name is already registered with a
// different kind or label key (a programming error that must degrade to
// a silent no-op rather than corrupt the exposition).
func (r *Registry) lookup(name, help string, kind Kind, labelKey, labelVal string) *series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.families[name]
	var s *series
	if f != nil {
		s = f.series[labelVal]
	}
	r.mu.RUnlock()
	if s != nil && f.kind == kind && f.labelKey == labelKey {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labelKey: labelKey, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind || f.labelKey != labelKey {
		return nil
	}
	s = f.series[labelVal]
	if s == nil {
		s = &series{labelVal: labelVal}
		switch kind {
		case KindCounter:
			s.ctr = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{}
		}
		f.series[labelVal] = s
	}
	return s
}

// Counter returns the unlabeled counter named name, registering it on
// first use. A nil registry (or a kind conflict) returns the nil
// counter, whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindCounter, "", ""); s != nil {
		return s.ctr
	}
	return nil
}

// CounterL returns the counter for one (labelKey=labelVal) series of
// the family named name.
func (r *Registry) CounterL(name, help, labelKey, labelVal string) *Counter {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindCounter, labelKey, labelVal); s != nil {
		return s.ctr
	}
	return nil
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindGauge, "", ""); s != nil {
		return s.gauge
	}
	return nil
}

// GaugeL returns the gauge for one labeled series.
func (r *Registry) GaugeL(name, help, labelKey, labelVal string) *Gauge {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindGauge, labelKey, labelVal); s != nil {
		return s.gauge
	}
	return nil
}

// Histogram returns the unlabeled histogram named name.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindHistogram, "", ""); s != nil {
		return s.hist
	}
	return nil
}

// HistogramL returns the histogram for one labeled series.
func (r *Registry) HistogramL(name, help, labelKey, labelVal string) *Histogram {
	if r == nil {
		return nil
	}
	if s := r.lookup(name, help, KindHistogram, labelKey, labelVal); s != nil {
		return s.hist
	}
	return nil
}

// familiesSorted snapshots the registry in name order for stable
// exposition output.
func (r *Registry) familiesSorted() []*family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// seriesSorted returns a family's series in label-value order.
func (f *family) seriesSorted() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labelVal < out[j].labelVal })
	return out
}
