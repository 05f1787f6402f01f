package cec

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// fullStats builds a Stats with every field populated, including the
// optional Portfolio and Panics sections, so the round-trip test
// covers the whole wire surface.
func fullStats() *Stats {
	return &Stats{
		Engine:           "portfolio",
		Workers:          4,
		Outputs:          9,
		SimRounds:        8,
		SimWordsPerRound: 4,
		SimPatterns:      2048,
		SimCexHits:       1,
		FraigNodesBefore: 120,
		FraigNodesAfter:  30,
		FraigMerges:      45,
		FraigProveCalls:  12,
		StructuralEqual:  6,
		SATCalls:         5,
		Conflicts:        777,
		Decisions:        1234,
		ClausesReused:    321,
		VarsEncoded:      654,
		DBReductions:     2,
		ClausesDeleted:   88,
		BudgetNS:         2_000_000_000,
		Portfolio: &PortfolioStats{
			SATWins: 2, BDDWins: 1, SATTimeouts: 1, BDDTimeouts: 2, Unresolved: 1,
		},
		Panics: []PanicRecord{
			{Output: "o3", Value: "index out of range", Stack: "goroutine 7 [running]:\n..."},
		},
		PerOutput: []OutputStats{
			{Name: "o0", Status: "structural", SATCalls: 0, Worker: -1},
			{Name: "o1", Status: "equal", Engine: "sat", SATCalls: 2, Conflicts: 500, Decisions: 900, LearnedReused: 42, TimeNS: 120_000, Worker: 0},
			{Name: "o2", Status: "cex", Engine: "bdd", SATCalls: 1, Conflicts: 277, Decisions: 334, TimeNS: 80_000, Worker: 1},
		},
		WorkerBusyNS: []int64{150_000, 90_000, 0, 0},
		Utilization:  0.3,
		ElapsedNS:    200_000,
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	in := fullStats()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Errorf("round trip mutated the record:\n in: %+v\nout: %+v", in, &out)
	}
}

// The optional sections must disappear entirely from the JSON when
// unset — consumers key presence off the field, not a zero value.
func TestStatsJSONOmitsEmptyOptionalFields(t *testing.T) {
	data, err := json.Marshal(&Stats{Engine: "hybrid"})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{"portfolio", "panics", "per_output", "worker_busy_ns", "budget_ns"} {
		if strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("zero-valued optional field %q serialized: %s", key, data)
		}
	}
}

func TestStatsStringGolden(t *testing.T) {
	got := fullStats().String()
	want := `engine:      portfolio (4 workers)
outputs:     9 (6 structural)
simulation:  8 rounds x 4 words (2048 patterns), 1 cex hits
fraig:       120 -> 30 AND nodes, 45 merges (12 proofs)
sat:         5 calls, 777 conflicts, 1234 decisions
reuse:       321 clauses reused, 654 vars encoded, 2 reductions
budget:      2s wall clock
portfolio:   sat 2 wins / 1 timeouts, bdd 1 wins / 2 timeouts, 1 unresolved
panics:      1 recovered proofs (degraded to undecided)
utilization: 30% over 200µs
hardest miters:
  o1                   equal         500 conflicts    120µs
  o2                   cex           277 conflicts     80µs
  o0                   structural      0 conflicts       0s
`
	if got != want {
		t.Errorf("String() drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A Stats with no per-output section and zero elapsed time must still
// render without dividing by zero anywhere (NaN% would surface here).
func TestStatsStringZeroElapsed(t *testing.T) {
	got := (&Stats{Engine: "hybrid", Workers: 1}).String()
	if strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Errorf("zero-elapsed Stats rendered a non-finite number:\n%s", got)
	}
}

// TestFraigSpanGauges pins the sweep's accounting on the fraig span:
// merges and SAT-bound pairs agree with Stats, and the counterexample
// skips and solver recycles are reported beside them. The second pair
// adds a hard xor-chain miter (more than 5000 conflicts) to a
// multiplier pair the sweep merges: however long the miters' probes
// run, Stats reports the stage-2 sweep's effort and nothing else.
func TestFraigSpanGauges(t *testing.T) {
	mul1, mul2 := multiplier(4, false), multiplier(4, true)
	mul1.AddOutput("x", addXorChain(mul1, "x", 0))
	mul2.AddOutput("x", addXorChain(mul2, "x", hardXor))
	xc1, xc2 := xorPairs(2)
	for _, pair := range []struct {
		name      string
		c1, c2    *netlist.Circuit
		conflicts int64 // the hardest miter needs more than this
	}{
		{"xor chains", xc1, xc2, 0},
		{"multiplier + hard xor chain", mul1, mul2, 5000},
	} {
		ring := obs.NewRingSink(4096)
		tr := obs.New(ring)
		res, err := CheckCtx(obs.WithTracer(context.Background(), tr), pair.c1, pair.c2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var fraigSpan uint64
		gauges := map[string]int64{}
		for _, ev := range ring.Events() {
			switch {
			case ev.Type == obs.EvBegin && ev.Name == "fraig":
				fraigSpan = ev.Span
			case ev.Type == obs.EvGauge && ev.Span == fraigSpan && fraigSpan != 0:
				gauges[ev.Name] = ev.Value
			}
		}
		st := res.Stats
		if st.FraigProveCalls == 0 {
			t.Fatalf("%s: premise: the sweep sent no pair to SAT: %+v", pair.name, st)
		}
		hardest := int64(0)
		for _, o := range st.PerOutput {
			hardest = max(hardest, o.Conflicts)
		}
		if res.Verdict != Equivalent || hardest <= pair.conflicts {
			t.Fatalf("%s: premise: verdict %v, hardest miter %d conflicts, want equivalent and > %d",
				pair.name, res.Verdict, hardest, pair.conflicts)
		}
		for name, want := range map[string]int64{
			"fraig.merges":      int64(st.FraigMerges),
			"fraig.prove_calls": int64(st.FraigProveCalls),
		} {
			if got, ok := gauges[name]; !ok || got != want {
				t.Errorf("%s: %s = %d (present %v), want %d", pair.name, name, got, ok, want)
			}
		}
		for _, name := range []string{"fraig.cex_skipped", "fraig.recycles"} {
			if _, ok := gauges[name]; !ok {
				t.Errorf("%s: fraig span has no %s gauge: %v", pair.name, name, gauges)
			}
		}
	}
}
