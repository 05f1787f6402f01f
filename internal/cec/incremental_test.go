package cec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"seqver/internal/aig"
	"seqver/internal/netlist"
	"seqver/internal/sat"
	"seqver/internal/synth"
)

// xorChainMulti builds k structurally independent xor-chain outputs
// (o0..ok-1), each from addXorChain over its own inputs.
func xorChainMulti(k int, perm int64) *netlist.Circuit {
	c := netlist.New("xcm")
	for o := 0; o < k; o++ {
		c.AddOutput(fmt.Sprintf("o%d", o), addXorChain(c, string(rune('a'+o)), perm))
	}
	return c
}

// addXorChain adds a 24-input xor chain over fresh inputs prefix_00..
// prefix_23 to c and returns its node. With perm 0 the chain xors its
// inputs in index order; otherwise in the order of a shuffle seeded by
// perm. An in-order and a shuffled chain compute the same function with
// no shared AIG structure, and their miter needs more conflicts than
// the fraig sweep's 1000-conflict proofs may spend (about 2000 under
// shuffledXor, about 9000 under hardXor), so it survives stage 2 and
// reaches the worker pool.
func addXorChain(c *netlist.Circuit, prefix string, perm int64) int {
	const n = 24
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if perm != 0 {
		rand.New(rand.NewSource(perm)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	ins := make([]int, n)
	for i := range ins {
		ins[i] = c.AddInput(fmt.Sprintf("%s_%02d", prefix, i))
	}
	acc := ins[order[0]]
	for _, x := range order[1:] {
		acc = c.AddGate("", netlist.OpXor, acc, ins[x])
	}
	return acc
}

// Shuffle seeds for addXorChain.
const (
	shuffledXor = 3 // ~2000 conflicts per output miter
	hardXor     = 4 // ~9000 conflicts per output miter
)

// xorPairs returns the in-order and shuffledXor copies of xorChainMulti.
func xorPairs(k int) (*netlist.Circuit, *netlist.Circuit) {
	return xorChainMulti(k, 0), xorChainMulti(k, shuffledXor)
}

// assertMitersReachPool fails the test unless some output miter
// survived the fraig sweep, i.e. the worker pool had real work.
func assertMitersReachPool(t *testing.T, res *Result) {
	t.Helper()
	if st := res.Stats; st.StructuralEqual >= st.Outputs {
		t.Fatalf("premise: fraig discharged all %d miters structurally", st.Outputs)
	}
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
// worker counts over synthesized (equivalent) and mutated pairs plus
// the xor-chain pair: every verdict must equal the fresh-solver
// oracle's, and every counterexample must replay. Stage 1 is off, so
// mutants reach the miters instead of falling to simulation, and both
// verdicts must come from miters that survived fraig. (Runs under
// -race in CI via the package race job.)
func TestVerdictMatchesFreshSolverOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	xc1, xc2 := xorPairs(2)
	pairs := [][2]*netlist.Circuit{{xc1, xc2}}
	for trial := 0; trial < 4; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]*netlist.Circuit{c, o}, [2]*netlist.Circuit{c, mutate(rng, c)})
	}
	seen, pooled := map[Verdict]int{}, map[Verdict]int{}
	for pi, pair := range pairs {
		want := oracleVerdict(t, pair[0], pair[1])
		seen[want]++
		for _, engine := range []string{"hybrid", "portfolio"} {
			for _, workers := range []int{1, 3} {
				res, err := Check(pair[0], pair[1], Options{
					Engine: engine, Seed: int64(pi), Workers: workers, SimRounds: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != want {
					t.Fatalf("pair %d engine %s workers %d: verdict %v, oracle %v",
						pi, engine, workers, res.Verdict, want)
				}
				if res.Stats.StructuralEqual < res.Outputs {
					pooled[want]++
				}
				if res.Verdict == Inequivalent {
					assertGenuineCex(t, pair[0], pair[1], res)
				}
			}
		}
	}
	if seen[Equivalent] == 0 || seen[Inequivalent] == 0 {
		t.Fatalf("sweep must cover both verdicts, oracle gave %v", seen)
	}
	if pooled[Equivalent] == 0 || pooled[Inequivalent] == 0 {
		t.Fatalf("premise: each verdict needs miters that survive fraig, got %v", pooled)
	}
}

// TestIncrementalConflictDeltas pins the per-output accounting fix: on
// k independent same-difficulty outputs proved by one warm solver, each
// output's conflict count must be its own probe's delta — absolute
// lifetime counters would grow roughly linearly across the queue.
func TestIncrementalConflictDeltas(t *testing.T) {
	const k = 5
	c1, c2 := xorPairs(k)
	res, err := Check(c1, c2, Options{Workers: 1, SimRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	assertMitersReachPool(t, res)
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
	c1, c2 := xorPairs(4)
	res, err := Check(c1, c2, Options{Workers: 1, SimRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertMitersReachPool(t, res)
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

// TestIncrementalBudgetExhaustionUndecided is the issue's budget test:
// an interrupted incremental probe must degrade to the structured
// Undecided verdict with named outputs — never a hang,
// crash, or wrong answer.
func TestIncrementalBudgetExhaustionUndecided(t *testing.T) {
	c1, c2 := xorPairs(4)
	// A nanosecond budget expires before any probe starts.
	res, err := Check(c1, c2, Options{
		Workers: 2, SimRounds: -1,
		Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided {
		t.Fatalf("verdict %v under expired budget", res.Verdict)
	}
	assertMitersReachPool(t, res)
	if len(res.UndecidedOutputs) == 0 {
		t.Fatal("undecided verdict without named outputs")
	}
	// A one-conflict limit interrupts mid-probe instead of pre-probe.
	res, err = Check(c1, c2, Options{
		Workers: 1, SimRounds: -1,
		MaxConflicts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertMitersReachPool(t, res)
	if res.Verdict != Undecided || len(res.UndecidedOutputs) == 0 {
		t.Fatalf("conflict-limited incremental run: %+v", res)
	}
}
