package cec

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqver/internal/aig"
	"seqver/internal/obs"
	"seqver/internal/sat"
)

// testMiterHook, when non-nil, runs at the start of every miter proof
// with the output's name. It exists only for tests (panic injection into
// the worker pool); production code never sets it.
var testMiterHook func(output string)

// Stage-1 defaults: rounds x wordsPerRound x 64 random patterns.
const (
	defaultSimRounds        = 8
	defaultSimWordsPerRound = 4
)

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) simShape() (rounds, wordsPerRound int) {
	rounds = o.SimRounds
	if rounds == 0 {
		rounds = defaultSimRounds
	}
	if rounds < 0 {
		rounds = 0
	}
	wordsPerRound = o.SimWordsPerRound
	if wordsPerRound <= 0 {
		wordsPerRound = defaultSimWordsPerRound
	}
	return rounds, wordsPerRound
}

// checkSAT is the hybrid/sat/portfolio pipeline: random simulation,
// optional fraig sweeping, then one miter per output discharged by a
// worker pool (SAT alone, or the SAT-vs-BDD portfolio race).
func checkSAT(ctx context.Context, a *aig.AIG, piNames []string, pos1, pos2 []aig.Lit,
	names []string, opt Options, res *Result, engine string) (*Result, error) {
	workers := opt.workerCount()
	st := res.Stats
	st.Workers = workers

	// Stage 1: random simulation looks for cheap counterexamples.
	sctx, ssp := obs.Start(ctx, "sim")
	smem := obs.SpanMem(ssp)
	sctx, srestore := obs.PhaseLabel(sctx, "sim")
	hit := simStage(sctx, a, pos1, pos2, opt, st)
	srestore()
	smem.End()
	ssp.End()
	if hit != nil {
		res.Verdict = Inequivalent
		res.FailingOutput = names[hit.out]
		res.Counterexample = cexAssign(piNames, func(i int) bool {
			return hit.piWords[i][hit.word]&(1<<uint(hit.bit)) != 0
		})
		return res, nil
	}

	// Stage 2: SAT-sweeping merges internal equivalences so that the
	// output miters collapse structurally where the circuits are similar.
	// Under a deadline the sweep degrades to a structural copy, keeping
	// stage 3 the only consumer of whatever budget remains.
	if engine != "sat" {
		st.FraigNodesBefore = a.NumAnds()
		fctx, fsp := obs.Start(ctx, "fraig")
		fmem := obs.SpanMem(fsp)
		fctx, frestore := obs.PhaseLabel(fctx, "fraig")
		af, fst := aig.FraigExCtx(fctx, a, aig.FraigOptions{
			Seed: opt.Seed, MaxConflicts: 1000, Workers: workers,
		})
		frestore()
		if fsp != nil {
			fsp.Gauge("fraig.nodes_before", int64(st.FraigNodesBefore))
			fsp.Gauge("fraig.nodes_after", int64(fst.NodesAfter))
			fsp.Gauge("fraig.merges", int64(fst.Merges))
		}
		fmem.End()
		fsp.End()
		st.FraigNodesAfter = fst.NodesAfter
		st.FraigMerges = fst.Merges
		st.FraigProveCalls = fst.ProveCalls
		// Recover per-output edges from the fraiged AIG's POs.
		a = af
		for i := 0; i < len(pos1); i++ {
			pos1[i] = a.PO(2 * i)
			pos2[i] = a.PO(2*i + 1)
		}
	}

	// Stage 3: one miter per output, proved concurrently. The "sat"
	// engine proves over the unmerged AIG, so fraig-proven internal
	// equivalences are not folded into the structure. The workers
	// recover them on demand: the first probe that burns through
	// classTrigger conflicts without an answer runs one analysis-only
	// sweep over the joint AIG, and every worker feeds the resulting
	// classes into its clause database as equality clauses. Easy sweeps
	// never pay for the analysis; hard miters amortize it across the
	// remaining queue.
	maxConf := opt.MaxConflicts
	if maxConf == 0 {
		maxConf = 200000
	}
	trigger := int64(opt.ClassTriggerConflicts)
	if trigger == 0 {
		trigger = 5000
	}
	env := &proveEnv{
		a: a, piNames: piNames, names: names, pos1: pos1, pos2: pos2,
		maxConf:      maxConf,
		bddLimit:     opt.bddLimit(),
		portfolio:    engine == "portfolio",
		classTrigger: trigger,
		classSeed:    opt.Seed,
		classWorkers: workers,
		deadline:     newBudgeter(ctx, len(pos1)),
	}
	proveMiters(ctx, env, workers, res, st)
	return res, nil
}

func (o Options) bddLimit() int {
	if o.BDDLimit > 0 {
		return o.BDDLimit
	}
	return 2_000_000
}

// simHit locates the first differing pattern found by stage 1:
// output index, pattern word and bit, and the PI words of its round.
type simHit struct {
	round, out, word, bit int
	piWords               [][]uint64
}

// less orders hits deterministically so the stage-1 result does not
// depend on worker scheduling.
func (h *simHit) less(o *simHit) bool {
	if h.round != o.round {
		return h.round < o.round
	}
	if h.out != o.out {
		return h.out < o.out
	}
	if h.word != o.word {
		return h.word < o.word
	}
	return h.bit < o.bit
}

// simStage runs the stage-1 random simulation rounds as parallel
// batches (each round simulates wordsPerRound*64 patterns in one k-word
// sweep) and returns the first difference in deterministic order, or
// nil if no round distinguishes the circuits. Simulation is only a
// filter, so an expiring context simply skips the remaining rounds.
func simStage(ctx context.Context, a *aig.AIG, pos1, pos2 []aig.Lit, opt Options, st *Stats) *simHit {
	rounds, wpr := opt.simShape()
	st.SimRounds, st.SimWordsPerRound = rounds, wpr
	st.SimPatterns = int64(rounds) * int64(wpr) * 64
	if rounds == 0 {
		return nil
	}
	sp := obs.CurrentSpan(ctx)
	workers := opt.workerCount()
	if workers > rounds {
		workers = rounds
	}

	var mu sync.Mutex
	var best *simHit
	next := int32(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(atomic.AddInt32(&next, 1))
				if r >= rounds || ctx.Err() != nil {
					return
				}
				// Seed per round, not per worker: the simulated
				// patterns are identical for every worker count.
				rng := rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(r)*7919 + 5))
				piWords := make([][]uint64, a.NumPIs())
				for i := range piWords {
					ws := make([]uint64, wpr)
					for j := range ws {
						ws[j] = rng.Uint64()
					}
					piWords[i] = ws
				}
				w := a.SimWordsK(nil, piWords, wpr, 1)
				for i := range pos1 {
					w1, w2 := w[pos1[i].Node()], w[pos2[i].Node()]
					x1, x2 := flipMask(pos1[i]), flipMask(pos2[i])
					for j := 0; j < wpr; j++ {
						diff := (w1[j] ^ x1) ^ (w2[j] ^ x2)
						if diff == 0 {
							continue
						}
						hit := &simHit{round: r, out: i, word: j,
							bit: bits.TrailingZeros64(diff), piWords: piWords}
						mu.Lock()
						st.SimCexHits++
						if best == nil || hit.less(best) {
							best = hit
						}
						mu.Unlock()
						break
					}
				}
				if sp != nil {
					sp.Count("sim.rounds", 1)
				}
			}
		}()
	}
	wg.Wait()
	return best
}

// flipMask returns the all-ones word for complemented edges.
func flipMask(l aig.Lit) uint64 {
	if l.Compl() {
		return ^uint64(0)
	}
	return 0
}

// miterWin is the first counterexample found by the worker pool.
type miterWin struct {
	out int
	cex map[string]bool
}

// proveEnv bundles the immutable inputs of the miter-proving stage.
type proveEnv struct {
	a              *aig.AIG
	piNames, names []string
	pos1, pos2     []aig.Lit
	maxConf        int64
	bddLimit       int
	portfolio      bool
	deadline       *budgeter // nil when neither Budget nor a ctx deadline is set

	// On-demand class analysis (sat engine): the first probe to exceed
	// classTrigger conflicts runs the fraig sweep once; classes
	// publishes the result to all workers.
	classTrigger    int64 // <0: sweep eagerly before the first probe
	classSeed       int64
	classWorkers    int
	classOnce       sync.Once
	classes         atomic.Pointer[[]aig.EquivPair]
	fraigProveCalls int // sweep's prove calls, read after the pool drains

	// Reuse-telemetry accumulators, updated atomically by the workers
	// and folded into Stats once the pool drains.
	clausesReused  int64
	varsEncoded    int64
	dbReductions   int64
	clausesDeleted int64
	classesFed     int64
}

// workerState is what each pool worker owns privately: a warm SAT
// solver and its CNF map over the shared read-only AIG.
type workerState struct {
	solver *sat.Solver
	cnf    *aig.CNFMap
	// classDone marks env.classes entries already fed into this
	// worker's clause database (applied lazily once both endpoints of a
	// pair have been encoded by some cone).
	classDone []bool
}

// proveMiters discharges one miter per output on a pool of workers.
// Each worker owns a SAT solver and CNF map over the shared read-only
// AIG; the first counterexample wins and cancels the remaining work via
// an atomic stop flag, and an expired deadline drains the remaining
// queue as timeouts. Per-output and per-worker accounting lands in st.
func proveMiters(ctx context.Context, e *proveEnv, workers int, res *Result, st *Stats) {
	ctx, msp := obs.Start(ctx, "miters")
	defer msp.End()
	mmem := obs.SpanMem(msp)
	defer mmem.End() // LIFO: memory gauges land before the span closes
	ctx, mrestore := obs.PhaseLabel(ctx, "miters")
	defer mrestore() // pool goroutines inherit job_id+phase at spawn
	if msp != nil {
		// A zero delta registers the series up front, so a check whose
		// miters all collapse structurally still reports it (as 0).
		msp.Count("miters.resolved", 0)
	}
	n := len(e.pos1)
	perOut := make([]OutputStats, n)
	var pending []int
	for i := range perOut {
		perOut[i] = OutputStats{Name: e.names[i], Worker: -1}
		if e.pos1[i] == e.pos2[i] {
			perOut[i].Status = "structural"
			st.StructuralEqual++
		} else {
			perOut[i].Status = "skipped"
			pending = append(pending, i)
		}
	}
	if e.deadline != nil {
		// Structural matches consume no budget; divide over real work.
		e.deadline.setPending(len(pending))
	}
	if e.portfolio {
		st.Portfolio = &PortfolioStats{}
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}

	var stop atomic.Bool
	var undecided atomic.Bool
	var mu sync.Mutex
	var win *miterWin
	busy := make([]int64, workers)
	jobs := make(chan int)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workerState{
				solver: sat.New(0),
				cnf:    &aig.CNFMap{VarOf: map[uint32]int{}},
			}
			for i := range jobs {
				if stop.Load() {
					continue // drain: leave the miter marked skipped
				}
				o := &perOut[i]
				if ctx.Err() != nil {
					// Budget exhausted: everything still queued is
					// structurally unresolved, never silently dropped.
					o.Status = "timeout"
					undecided.Store(true)
					e.deadline.finish()
					continue
				}
				t0 := time.Now()
				o.Worker = w
				ictx, isp := obs.Start1(ctx, "miter", obs.S("output", e.names[i]))
				status, engine, cex := e.proveOne(ictx, ws, i, o, st, &mu)
				if isp != nil {
					// The exact per-probe effort rides the resolved
					// instant, so a trace alone accounts every miter.
					isp.Event("resolved", obs.S("status", status), obs.S("engine", engine),
						obs.I("conflicts", o.Conflicts), obs.I("decisions", o.Decisions),
						obs.I("sat_calls", int64(o.SATCalls)))
					isp.End()
				}
				o.Status = status
				o.Engine = engine
				o.TimeNS = time.Since(t0).Nanoseconds()
				busy[w] += o.TimeNS
				e.deadline.finish()
				if msp != nil {
					msp.Count("miters.resolved", 1)
				}
				switch status {
				case "cex":
					mu.Lock()
					if win == nil {
						win = &miterWin{out: i, cex: cex}
					}
					mu.Unlock()
					stop.Store(true)
				case "equal":
				default: // undecided | timeout | panic
					undecided.Store(true)
				}
			}
		}(w)
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	wall := time.Since(start).Nanoseconds()
	st.PerOutput = perOut
	st.WorkerBusyNS = busy
	if wall > 0 && workers > 0 {
		var sum int64
		for _, b := range busy {
			sum += b
		}
		st.Utilization = float64(sum) / (float64(wall) * float64(workers))
	}
	for i := range perOut {
		st.SATCalls += perOut[i].SATCalls
		st.Conflicts += perOut[i].Conflicts
		st.Decisions += perOut[i].Decisions
	}
	st.ClausesReused = e.clausesReused
	st.VarsEncoded = e.varsEncoded
	st.DBReductions = e.dbReductions
	st.ClausesDeleted = e.clausesDeleted
	st.ClassesFed = int(e.classesFed)
	if ptr := e.classes.Load(); ptr != nil {
		st.FraigClasses = len(*ptr)
		st.FraigProveCalls = e.fraigProveCalls
	}
	res.SATCalls = st.SATCalls

	switch {
	case win != nil:
		res.Verdict = Inequivalent
		res.FailingOutput = e.names[win.out]
		res.Counterexample = win.cex
	case undecided.Load():
		res.Verdict = Undecided
		for i := range perOut {
			switch perOut[i].Status {
			case "undecided", "timeout", "panic":
				res.UndecidedOutputs = append(res.UndecidedOutputs, perOut[i].Name)
			}
		}
		sort.Strings(res.UndecidedOutputs)
	default:
		res.Verdict = Equivalent
	}
}

// proveOne discharges miter i under its budget slice, converting a
// panicking proof into an undecided "panic" status (stack captured in
// st.Panics) so one bad cone can never take down a batch run.
func (e *proveEnv) proveOne(ctx context.Context, ws *workerState, i int,
	o *OutputStats, st *Stats, mu *sync.Mutex) (status, engine string, cex map[string]bool) {
	defer func() {
		if r := recover(); r != nil {
			status, engine, cex = "panic", "", nil
			recordPanic(st, mu, e.names[i], r)
		}
	}()
	if testMiterHook != nil {
		testMiterHook(e.names[i])
	}
	mctx := ctx
	if e.deadline != nil {
		d, pending := e.deadline.slice()
		// The budgeter's grant — and whatever the miter later donates
		// back by finishing early — lands on the miter's span, so a
		// trace shows exactly how the wall clock was divided.
		if sp := obs.CurrentSpan(ctx); sp != nil {
			sp.Event("budget.slice",
				obs.I("slice_ns", int64(time.Until(d))), obs.I("pending", int64(pending)))
			defer func() {
				if unused := time.Until(d); unused > 0 && status != "timeout" {
					sp.Event("budget.donate", obs.I("unused_ns", int64(unused)))
				}
			}()
		}
		var cancel context.CancelFunc
		mctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	if e.portfolio {
		return e.racePortfolio(mctx, i, ws, o, st, mu)
	}
	status, cex = e.proveSAT(mctx, ws, i, o)
	return status, "sat", cex
}

// proveSAT discharges one output miter. The probe runs on the
// worker's warm solver: only the cone delta is encoded into the shared
// CNF, the two one-sided checks run as assumption probes over the
// retained clause database (clauses learned on output i prune output
// i+1), and a proven equality is fed back as permanent clauses for
// later miters. Directed assumption
// pairs beat a retractable miter clause under an activation literal
// here — assumptions propagate both cone values immediately, while an
// activated disjunction forces the solver to branch on the case split
// (measured ~20% more conflicts on the s3384 harness). A probe that
// exhausts the class-trigger conflict cap runs the fraig class
// analysis once and retries with the classes fed.
// Statuses: equal | cex | undecided (conflict budget) | timeout
// (context fired).
func (e *proveEnv) proveSAT(ctx context.Context, ws *workerState, i int,
	o *OutputStats) (string, map[string]bool) {
	s := ws.solver
	if sp := obs.CurrentSpan(ctx); sp != nil {
		thr := obs.NewThrottle(50 * time.Millisecond)
		s.Progress = func(conflicts, decisions int64) {
			if thr.Ok() {
				sp.Gauge("sat.conflicts", conflicts)
				sp.Gauge("sat.decisions", decisions)
			}
		}
		defer func() { s.Progress = nil }()
	}
	// Per-probe accounting is a delta of the solver's lifetime counters:
	// a warm solver accumulates across outputs, and absolute counts
	// would re-bill earlier miters' work to every later one.
	v0 := s.NumVars()
	c0, d0, calls0 := s.Stats.Conflicts, s.Stats.Decisions, s.Stats.SolveCalls
	r0, del0 := s.Stats.Reductions, s.Stats.Deleted
	defer func() {
		o.Conflicts = s.Stats.Conflicts - c0
		o.Decisions = s.Stats.Decisions - d0
		o.SATCalls = int(s.Stats.SolveCalls - calls0)
		atomic.AddInt64(&e.dbReductions, s.Stats.Reductions-r0)
		atomic.AddInt64(&e.clausesDeleted, s.Stats.Deleted-del0)
	}()

	l1 := e.a.Encode(s, ws.cnf, e.pos1[i])
	l2 := e.a.Encode(s, ws.cnf, e.pos2[i])
	atomic.AddInt64(&e.varsEncoded, int64(s.NumVars()-v0))

	o.LearnedReused = s.NumLearned()
	atomic.AddInt64(&e.clausesReused, int64(o.LearnedReused))
	if e.classTrigger < 0 {
		e.ensureClasses(ctx)
	}
	e.applyClasses(ws)

	// Staged effort: probe under the class-trigger conflict cap first;
	// only a probe that exhausts it invests in the one-time fraig class
	// analysis, feeds the classes, and retries at the full budget.
	limit := e.maxConf
	staged := e.classes.Load() == nil && e.classTrigger > 0 && e.classTrigger < e.maxConf
	if staged {
		limit = e.classTrigger
	}
	for pass := 0; pass < 2; pass++ {
		a1, a2 := l1, l2.Not()
		if pass == 1 {
			a1, a2 = l1.Not(), l2
		}
		s.MaxConflicts = limit
		verdict, model := s.SolveModelCtx(ctx, a1, a2)
		switch verdict {
		case sat.Sat:
			return "cex", cexFromModel(e.a, e.piNames, ws.cnf, model)
		case sat.Unknown:
			if staged {
				staged = false
				limit = e.maxConf
				e.ensureClasses(ctx)
				e.applyClasses(ws)
				pass--
				continue
			}
			return "undecided", nil
		case sat.Canceled:
			return "timeout", nil
		}
	}
	// Proven equal: later cones sharing either side now propagate
	// through the equality instead of re-deriving it.
	s.AddClause(l1.Not(), l2)
	s.AddClause(l1, l2.Not())
	return "equal", nil
}

// ensureClasses runs the analysis-only fraig sweep exactly once per
// check and publishes the proven equivalence classes to all workers.
// Concurrent callers block until the sweep finishes — a worker that
// trips the trigger while another is already sweeping would only burn
// more conflicts on a probe the classes are about to make easy.
func (e *proveEnv) ensureClasses(ctx context.Context) {
	e.classOnce.Do(func() {
		fctx, fsp := obs.Start(ctx, "fraig.classes")
		_, fst := aig.FraigExCtx(fctx, e.a, aig.FraigOptions{
			Seed: e.classSeed, MaxConflicts: 1000, Workers: e.classWorkers,
			RecordClasses: true,
		})
		if fsp != nil {
			fsp.Gauge("fraig.classes", int64(len(fst.Classes)))
		}
		fsp.End()
		e.fraigProveCalls = fst.ProveCalls
		cls := fst.Classes
		e.classes.Store(&cls)
	})
}

// applyClasses feeds fraig-proven equivalence classes into the worker's
// clause database. A pair is applied once both endpoints' nodes are
// already in the worker's CNF (feeding never forces extra cone
// encoding); constant classes need only their A side and become units.
// A no-op until ensureClasses has published a class list.
func (e *proveEnv) applyClasses(ws *workerState) {
	ptr := e.classes.Load()
	if ptr == nil {
		return
	}
	classes := *ptr
	if len(ws.classDone) != len(classes) {
		ws.classDone = make([]bool, len(classes))
	}
	applied := 0
	for k, p := range classes {
		if ws.classDone[k] {
			continue
		}
		va, ok := ws.cnf.VarOf[p.A.Node()]
		if !ok {
			continue
		}
		la := sat.MkLit(va, p.A.Compl())
		if p.B.Node() == 0 {
			// A is constant: B.Compl() distinguishes True from False.
			u := la.Not()
			if p.B.Compl() {
				u = la
			}
			ws.solver.AddClause(u)
		} else {
			vb, ok := ws.cnf.VarOf[p.B.Node()]
			if !ok {
				continue
			}
			lb := sat.MkLit(vb, p.B.Compl())
			ws.solver.AddClause(la.Not(), lb)
			ws.solver.AddClause(la, lb.Not())
		}
		ws.classDone[k] = true
		applied++
	}
	if applied > 0 {
		atomic.AddInt64(&e.classesFed, int64(applied))
	}
}

func recordPanic(st *Stats, mu *sync.Mutex, output string, r any) {
	mu.Lock()
	st.Panics = append(st.Panics, PanicRecord{
		Output: output,
		Value:  fmt.Sprint(r),
		Stack:  string(debug.Stack()),
	})
	mu.Unlock()
}

// cexAssign builds a named counterexample from any per-PI value source —
// the one helper shared by the simulation, SAT-model, and BDD paths.
func cexAssign(piNames []string, val func(i int) bool) map[string]bool {
	out := make(map[string]bool, len(piNames))
	for i, n := range piNames {
		out[n] = val(i)
	}
	return out
}

func cexFromModel(a *aig.AIG, piNames []string, cnf *aig.CNFMap, model []bool) map[string]bool {
	return cexAssign(piNames, func(i int) bool {
		node := a.PI(i).Node()
		if v, ok := cnf.VarOf[node]; ok && v < len(model) {
			return model[v]
		}
		return false
	})
}
