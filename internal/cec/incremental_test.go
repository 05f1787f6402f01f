package cec

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"seqver/internal/aig"
	"seqver/internal/netlist"
	"seqver/internal/sat"
	"seqver/internal/synth"
)

// xorChainMulti builds k structurally independent xor-chain outputs
// (o0..ok-1), each over its own 16 inputs, associated left-to-right or
// right-to-left. Two opposite-association copies are function-equal
// but share no AIG structure, so every output miter needs real search.
func xorChainMulti(k int, reverse bool) *netlist.Circuit {
	c := netlist.New("xcm")
	const n = 16
	for o := 0; o < k; o++ {
		ins := make([]int, n)
		for i := range ins {
			ins[i] = c.AddInput(string(rune('a'+o)) + "_" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
		}
		acc := ins[0]
		rest := ins[1:]
		if reverse {
			acc = ins[n-1]
			rest = make([]int, 0, n-1)
			for i := n - 2; i >= 0; i-- {
				rest = append(rest, ins[i])
			}
		}
		for _, x := range rest {
			acc = c.AddGate("", netlist.OpXor, acc, x)
		}
		c.AddOutput("o"+string(rune('0'+o)), acc)
	}
	return c
}

// oracleVerdict decides c1 ≡ c2 independently of the engines: it
// builds the joint AIG and, for every output, encodes both cones into a
// brand-new solver and runs the two directed solves with no conflict
// limit. No state is shared across outputs, so nothing a warm solver,
// fraig sweep or worker pool does can leak into the reference verdict.
func oracleVerdict(t *testing.T, c1, c2 *netlist.Circuit) Verdict {
	t.Helper()
	m, err := jointAIG(context.Background(), c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	a, pos1, pos2 := m.AIG, m.POs1, m.POs2
	for i := range pos1 {
		s := sat.New(0)
		cnf := &aig.CNFMap{VarOf: map[uint32]int{}}
		l1 := a.Encode(s, cnf, pos1[i])
		l2 := a.Encode(s, cnf, pos2[i])
		for _, probe := range [][2]sat.Lit{{l1, l2.Not()}, {l1.Not(), l2}} {
			switch st := s.Solve(probe[0], probe[1]); st {
			case sat.Sat:
				return Inequivalent
			case sat.Unsat:
			default:
				t.Fatalf("oracle solve on output %d returned %v", i, st)
			}
		}
	}
	return Equivalent
}

// TestVerdictMatchesFreshSolverOracle sweeps the SAT-arm engines and
// worker counts over synthesized (equivalent) and mutated pairs: every
// verdict must equal the fresh-solver oracle's, and every
// counterexample must replay. (Runs under -race in CI via the package
// race job.)
func TestVerdictMatchesFreshSolverOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	seen := map[Verdict]int{}
	for trial := 0; trial < 4; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		mut := mutate(rng, c)
		for _, pair := range [][2]*netlist.Circuit{{c, o}, {c, mut}} {
			want := oracleVerdict(t, pair[0], pair[1])
			seen[want]++
			for _, engine := range []string{"sat", "hybrid", "portfolio"} {
				for _, workers := range []int{1, 3} {
					res, err := Check(pair[0], pair[1], Options{
						Engine: engine, Seed: int64(trial), Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Verdict != want {
						t.Fatalf("trial %d engine %s workers %d: verdict %v, oracle %v",
							trial, engine, workers, res.Verdict, want)
					}
					if res.Verdict == Inequivalent {
						assertGenuineCex(t, pair[0], pair[1], res)
					}
				}
			}
		}
	}
	if seen[Equivalent] == 0 || seen[Inequivalent] == 0 {
		t.Fatalf("sweep must cover both verdicts, oracle gave %v", seen)
	}
}

// TestIncrementalAdaptiveClassTrigger pins the staged-effort policy: a
// cheap miter queue never pays for the fraig class analysis, while a
// probe that exhausts the trigger budget runs it once, feeds the
// classes, and still lands the right verdict on the retry.
func TestIncrementalAdaptiveClassTrigger(t *testing.T) {
	c1 := xorChainMulti(3, false)
	c2 := xorChainMulti(3, true)
	// Default trigger: 16-input xor probes resolve in well under 5000
	// conflicts, so the sweep must not run.
	res, err := Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Stats.FraigClasses != 0 || res.Stats.ClassesFed != 0 {
		t.Fatalf("class sweep ran on a cheap queue: %+v", res.Stats)
	}
	// A one-conflict trigger trips on the first real probe: the sweep
	// runs once, classes reach the workers, and the retry still proves
	// equivalence instead of surfacing Undecided.
	res, err = Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
		ClassTriggerConflicts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("triggered run verdict %v", res.Verdict)
	}
	if res.Stats.FraigClasses == 0 || res.Stats.ClassesFed == 0 {
		t.Fatalf("trigger did not run or feed the class sweep: %+v", res.Stats)
	}
}

// TestIncrementalConflictDeltas pins the per-output accounting fix: on
// k independent same-difficulty outputs proved by one warm solver, each
// output's conflict count must be its own probe's delta — absolute
// lifetime counters would grow roughly linearly across the queue.
func TestIncrementalConflictDeltas(t *testing.T) {
	const k = 5
	c1 := xorChainMulti(k, false)
	c2 := xorChainMulti(k, true)
	res, err := Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	min, max, sum := int64(1<<62), int64(0), int64(0)
	for _, o := range res.Stats.PerOutput {
		if o.Conflicts < min {
			min = o.Conflicts
		}
		if o.Conflicts > max {
			max = o.Conflicts
		}
		sum += o.Conflicts
	}
	if min == 0 {
		t.Fatalf("an independent xor miter needed no conflicts: %+v", res.Stats.PerOutput)
	}
	if sum != res.Stats.Conflicts {
		t.Fatalf("per-output conflicts sum %d != total %d", sum, res.Stats.Conflicts)
	}
	// The cones are disjoint and equally hard; lifetime counters would
	// make the last output report ~k x the first.
	if max > 3*min {
		t.Fatalf("per-output conflicts look cumulative, not per-probe: min=%d max=%d", min, max)
	}
}

// TestIncrementalReuseTelemetry checks the reuse counters move: probing
// several miters on one warm solver must report carried-over learned
// clauses and encode-once variable accounting.
func TestIncrementalReuseTelemetry(t *testing.T) {
	c1 := xorChainMulti(4, false)
	c2 := xorChainMulti(4, true)
	res, err := Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ClausesReused == 0 {
		t.Fatalf("no cross-miter clause reuse recorded: %+v", st)
	}
	if st.VarsEncoded == 0 {
		t.Fatalf("no encoded-variable accounting: %+v", st)
	}
	reused := false
	for _, o := range st.PerOutput {
		if o.LearnedReused > 0 {
			reused = true
		}
	}
	if !reused {
		t.Fatal("no per-output LearnedReused entry moved")
	}
}

// TestIncrementalFeedsFraigClasses: with an eager (negative) trigger
// the analysis-only fraig sweep must surface the xor-chain output
// equivalences as classes before the first probe, and the workers must
// feed them into the clause database.
func TestIncrementalFeedsFraigClasses(t *testing.T) {
	c1 := xorChainMulti(2, false)
	c2 := xorChainMulti(2, true)
	res, err := Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
		ClassTriggerConflicts: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	st := res.Stats
	if st.FraigClasses == 0 {
		t.Fatalf("fraig analysis recorded no classes: %+v", st)
	}
	if st.ClassesFed == 0 {
		t.Fatalf("no classes fed into the clause database: %+v", st)
	}
}

// TestIncrementalBudgetExhaustionUndecided is the issue's budget test:
// an interrupted incremental probe must degrade to the structured
// Undecided verdict with named outputs — never a hang,
// crash, or wrong answer.
func TestIncrementalBudgetExhaustionUndecided(t *testing.T) {
	c1 := xorChainMulti(4, false)
	c2 := xorChainMulti(4, true)
	// A nanosecond budget expires before any probe starts.
	res, err := Check(c1, c2, Options{
		Engine: "sat", Workers: 2, SimRounds: -1,
		Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided {
		t.Fatalf("verdict %v under expired budget", res.Verdict)
	}
	if len(res.UndecidedOutputs) == 0 {
		t.Fatal("undecided verdict without named outputs")
	}
	// A one-conflict limit interrupts mid-probe instead of pre-probe.
	res, err = Check(c1, c2, Options{
		Engine: "sat", Workers: 1, SimRounds: -1,
		MaxConflicts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided || len(res.UndecidedOutputs) == 0 {
		t.Fatalf("conflict-limited incremental run: %+v", res)
	}
}
