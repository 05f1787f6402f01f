// Package cec is the combinational equivalence checker closing the
// paper's flow (Section 7.4): it decides whether two combinational
// circuits — in our flow, the CBF/EDBF unrollings H and J of Figure 19 —
// compute the same outputs, aligning primary inputs and outputs by name.
//
// The engine follows the architecture of the tools the paper cites
// (Matsunaga DAC'96; Kuehlmann-Krohm DAC'97): both circuits are built
// into one structurally hashed AIG (structural similarity collapses for
// free), random simulation filters inequivalences and groups candidate
// internal equivalences, SAT-sweeping (fraig) merges internal points to
// keep miters shallow, and a CDCL SAT solver discharges each output
// miter. A pure-BDD engine is provided for the ablation bench, and the
// "portfolio" engine races SAT against BDD per miter in the
// Kuehlmann-Krohm hybrid style.
//
// # Budget semantics
//
// Every entry point has a context-aware variant (CheckCtx), and
// Options.Budget adds a wall-clock bound divided adaptively across the
// remaining output miters. Resource exhaustion — deadline, context
// cancellation, SAT conflict budget, BDD node limit, or even a panic in
// one miter's proof — degrades that miter to undecided instead of
// hanging or crashing the batch; the overall verdict is then the
// structured Undecided with Result.UndecidedOutputs naming what was not
// resolved. Verdicts are budget-dependent but never wrong: a larger
// budget can turn Undecided into Equivalent/Inequivalent, no budget can
// flip a decided answer.
package cec

import (
	"context"
	"fmt"
	"time"

	"seqver/internal/aig"
	"seqver/internal/bdd"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Verdict is the outcome of an equivalence check.
type Verdict int

const (
	// Undecided means resource limits were hit before a proof either way.
	Undecided Verdict = iota
	// Equivalent means all outputs were proven equal.
	Equivalent
	// Inequivalent means a counterexample was found.
	Inequivalent
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Inequivalent:
		return "inequivalent"
	}
	return "undecided"
}

// Options tunes the engines.
type Options struct {
	// Engine selects the decision procedure: "hybrid" (default:
	// simulation + fraig + SAT), "bdd", or "portfolio" (simulation +
	// fraig, then SAT raced against BDD per miter — the first definitive
	// answer wins and cancels the loser).
	Engine string
	// MaxConflicts bounds each SAT proof (0: generous default).
	MaxConflicts int64
	// BDDLimit bounds the node count of every BDD build: the bdd
	// engine's and each portfolio BDD arm's. Zero or negative selects
	// the default, 2M nodes.
	BDDLimit int
	Seed     int64
	// Budget, when positive, bounds the whole Check call by wall clock.
	// The remaining budget is divided adaptively across the remaining
	// output miters (each undecided output gets remaining/pending), and
	// an exhausted budget yields the structured Undecided verdict with
	// Result.UndecidedOutputs — never a hang or an error. Verdicts are
	// budget-dependent but never wrong.
	Budget time.Duration
	// Workers sets the engine parallelism: output miters are proved
	// concurrently (one SAT solver and CNF map per worker over the
	// shared read-only AIG), the fraig signature pass is sharded, and
	// stage-1 simulation rounds run as parallel batches. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the serial path. Verdicts do not
	// depend on the worker count.
	Workers int
	// SimRounds is the number of stage-1 random-simulation rounds
	// (0: default 8; negative: skip stage 1).
	SimRounds int
	// SimWordsPerRound is the number of 64-pattern words simulated per
	// stage-1 round (0: default 4, i.e. 256 patterns per round).
	SimWordsPerRound int
}

// Result reports the verdict with diagnostics.
type Result struct {
	Verdict        Verdict
	FailingOutput  string          // set when Inequivalent
	Counterexample map[string]bool // input name -> value, when Inequivalent
	// UndecidedOutputs lists, on an Undecided verdict, the output names
	// whose miters were not resolved (budget/conflict-limit exhausted,
	// context canceled, or proof panicked), sorted.
	UndecidedOutputs []string
	Outputs          int // outputs compared
	SATCalls         int
	Elapsed          time.Duration
	Stats            *Stats // per-stage engine accounting, always populated
}

// Check decides name-aligned combinational equivalence of c1 and c2.
// The circuits must be latch-free and have identical output name sets;
// input sets may differ (a circuit ignores inputs outside its support).
func Check(c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	return CheckCtx(context.Background(), c1, c2, opt)
}

// CheckCtx is Check under cooperative cancellation: cancellation or
// deadline expiry degrades unresolved miters to undecided (see
// Result.UndecidedOutputs) rather than returning an error. Options.Budget
// composes with the context — whichever deadline is tighter wins.
func CheckCtx(ctx context.Context, c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	m, err := jointAIG(ctx, c1, c2)
	if err != nil {
		return nil, err
	}
	return CheckMiterCtx(ctx, m, opt)
}

// CheckMiterCtx decides a joint miter built by BuildMiter, with
// CheckCtx's budget and cancellation semantics. It only reads m, so a
// miter that was hashed for a cache key is checked as it is.
func CheckMiterCtx(ctx context.Context, m *Miter, opt Options) (*Result, error) {
	start := time.Now()
	engine := opt.Engine
	if engine == "" {
		engine = "hybrid"
	}
	ctx, sp := obs.Start(ctx, "cec", obs.S("engine", engine))
	defer sp.End()
	res := &Result{
		Outputs: len(m.Names),
		Stats:   &Stats{Engine: engine, Outputs: len(m.Names), Workers: 1},
	}
	defer func() {
		res.Elapsed = time.Since(start)
		res.Stats.ElapsedNS = res.Elapsed.Nanoseconds()
		emitStats(sp, res) // runs before the deferred sp.End above
	}()
	if opt.Budget > 0 {
		res.Stats.BudgetNS = opt.Budget.Nanoseconds()
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opt.Budget))
		defer cancel()
	}

	switch engine {
	case "hybrid", "portfolio":
		return checkSAT(ctx, m.AIG, m.AIG.PINames(), m.POs1, m.POs2, m.Names, opt, res, engine)
	case "bdd":
		return checkBDD(ctx, m.AIG, m.AIG.PINames(), m.POs1, m.POs2, m.Names, opt, res)
	default:
		return nil, fmt.Errorf("cec: unknown engine %q", opt.Engine)
	}
}

// emitStats folds the check's final Stats into the event stream once,
// as counts and one gauge on the cec span. This is the only way CEC
// totals reach aggregate telemetry: metrics.Sink turns each count into
// its seqver_<name>_total family. Per-miter events stay live progress;
// these are the exact totals.
func emitStats(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	st := res.Stats
	sp.Count("sat.calls", int64(st.SATCalls))
	sp.Count("sat.conflicts", st.Conflicts)
	sp.Count("sat.decisions", st.Decisions)
	sp.Count("sat.clauses_reused", st.ClausesReused)
	sp.Count("sat.vars_encoded", st.VarsEncoded)
	sp.Count("sim.patterns", st.SimPatterns)
	sp.Count("fraig.merges", int64(st.FraigMerges))
	sp.Count("undecided_outputs", int64(len(res.UndecidedOutputs)))
	sp.Gauge("sat.learned_db_size", lastLearned(st.PerOutput))
}

// lastLearned is the learned-clause count at the check's last SAT
// probe: the probe of the last miter a worker took off the queue (the
// queue runs in output order, so that is the highest-indexed one).
func lastLearned(per []OutputStats) int64 {
	for i := len(per) - 1; i >= 0; i-- {
		if per[i].Worker >= 0 {
			return int64(per[i].LearnedReused)
		}
	}
	return 0
}

func checkBDD(ctx context.Context, a *aig.AIG, piNames []string, pos1, pos2 []aig.Lit,
	names []string, opt Options, res *Result) (*Result, error) {
	_, bsp := obs.Start(ctx, "bdd.build")
	defer bsp.End()
	m := bdd.New(len(piNames))
	m.MaxNodes = opt.bddLimit()
	m.SetContext(ctx)
	if bsp != nil {
		// Node-count samples ride the manager's existing poll boundary
		// (see bdd.Manager.Progress), throttled to trace scale.
		thr := obs.NewThrottle(50 * time.Millisecond)
		m.Progress = func(nodes int) {
			if thr.Ok() {
				bsp.Gauge("bdd.nodes", int64(nodes))
			}
		}
	}
	funcs := make([]bdd.Ref, a.NumNodes())
	funcs[0] = bdd.False
	for i := 0; i < a.NumPIs(); i++ {
		funcs[i+1] = m.Var(i)
	}
	edge := func(l aig.Lit) bdd.Ref {
		f := funcs[l.Node()]
		if l.Compl() {
			return f.Not()
		}
		return f
	}
	err := bdd.CatchLimit(func() {
		for n := uint32(a.NumPIs() + 1); n < uint32(a.NumNodes()); n++ {
			f0, f1 := a.Fanins(n)
			funcs[n] = m.And(edge(f0), edge(f1))
		}
	})
	if err != nil {
		// Node limit or cancellation: the monolithic build decides
		// nothing, so every output is unresolved.
		res.Verdict = Undecided
		res.UndecidedOutputs = append([]string(nil), names...)
		return res, nil
	}
	for i := range pos1 {
		b1, b2 := edge(pos1[i]), edge(pos2[i])
		if b1 != b2 {
			res.Verdict = Inequivalent
			res.FailingOutput = names[i]
			// Extract a counterexample from the difference function.
			diffSat := m.AnySat(m.Xor(b1, b2))
			res.Counterexample = cexAssign(piNames, func(j int) bool { return diffSat[j] })
			return res, nil
		}
	}
	res.Verdict = Equivalent
	return res, nil
}
