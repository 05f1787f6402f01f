package aig

import (
	"context"
	"math/bits"
	"math/rand"
	"time"

	"seqver/internal/obs"
	"seqver/internal/sat"
)

// FraigOptions bounds the functional-reduction effort; zero values select
// defaults.
type FraigOptions struct {
	SimWords     int   // 64-pattern signature words per node
	MaxConflicts int64 // SAT budget per proof; Unknown keeps nodes separate
	MaxClassSize int   // candidates compared per signature class
	Seed         int64
	// Workers shards the signature simulation pass across goroutines
	// (level-batched, see SimSchedule). The merge loop itself stays
	// sequential — it owns the SAT solver. 0 or 1 means serial.
	Workers int
}

// FraigStats reports what a functional-reduction pass accomplished.
type FraigStats struct {
	NodesBefore int // AND nodes in the input AIG
	NodesAfter  int // AND nodes after merging and compaction
	Merges      int // nodes merged into a proven-equivalent representative
	ProveCalls  int // candidate pairs sent to SAT
	ProveFailed int // pairs SAT kept separate (refuted or budget hit)
	// CexSkipped counts candidate pairs never sent to SAT because a
	// stored counterexample already tells them apart.
	CexSkipped int
	// Recycles counts how often the sweep solver was replaced by a
	// fresh one after growing past sweepSolverVars variables.
	Recycles int
}

func (o *FraigOptions) defaults() {
	if o.SimWords == 0 {
		o.SimWords = 4
	}
	if o.MaxConflicts == 0 {
		o.MaxConflicts = 2000
	}
	if o.MaxClassSize == 0 {
		o.MaxClassSize = 8
	}
}

// Fraig functionally reduces the AIG: nodes proven equivalent up to
// complement are merged, in the style of Kuehlmann-Krohm (DAC'97) and the
// FRAIG literature. Random simulation signatures partition nodes into
// candidate classes; an incremental SAT solver confirms candidates. The
// returned AIG is compacted to the output cones and function-identical to
// the input.
func Fraig(a *AIG, opt FraigOptions) *AIG {
	out, _ := FraigEx(a, opt)
	return out
}

// FraigEx is Fraig returning reduction statistics alongside the AIG.
func FraigEx(a *AIG, opt FraigOptions) (*AIG, *FraigStats) {
	return FraigExCtx(nil, a, opt)
}

// FraigExCtx is FraigEx under cooperative cancellation: once ctx is
// canceled (or past its deadline) the sweep stops attempting SAT merge
// proofs and degrades to a plain structural copy, so it always returns a
// function-identical AIG promptly — possibly less reduced than an
// unbudgeted run would produce, but never wrong. A nil ctx never fires.
func FraigExCtx(ctx context.Context, a *AIG, opt FraigOptions) (*AIG, *FraigStats) {
	return fraigSweep(ctx, a, opt, nil)
}

// sweepSolverVars caps the sweep solver's size. A Sat answer assigns
// every variable the solver has ever encoded, so a refutation on a
// sweep-wide solver costs time in proportion to all cones proved so far
// rather than to the two cones at hand. Like ABC's cec sweeper, the
// sweep starts a fresh solver once the old one has grown past this many
// variables; the learned clauses lost are cheap to re-derive on
// fraig-sized proofs. On the verify benchmark, caps from 250 to 2000
// measured alike, 4000 was slower, and no cap at all left the sweep
// about 1.5 times slower.
const sweepSolverVars = 1000

// fraigSweep is FraigExCtx. onSkip, when non-nil, sees every candidate
// pair the counterexample filter keeps from SAT, with the output AIG
// and the PI assignment on which the two edges differ.
func fraigSweep(ctx context.Context, a *AIG, opt FraigOptions, onSkip func(out *AIG, x, y Lit, in []bool)) (*AIG, *FraigStats) {
	opt.defaults()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	k := opt.SimWords
	stats := &FraigStats{NodesBefore: a.NumAnds()}

	piPatterns := make([][]uint64, a.numPIs)
	for i := range piPatterns {
		ws := make([]uint64, k)
		for j := range ws {
			ws[j] = rng.Uint64()
		}
		piPatterns[i] = ws
	}
	// Signature pass: every new-AIG node below is function-identical to
	// the input node it is created for (representatives preserve
	// functions exactly), so all signatures can be precomputed on the
	// input AIG in one sharded sweep instead of word-by-word inside the
	// sequential merge loop.
	var sch *SimSchedule
	if opt.Workers > 1 {
		sch = a.NewSimSchedule()
	}
	sigIn := a.SimWordsK(sch, piPatterns, k, opt.Workers)

	out := New(a.PINames())
	// Per new-AIG node: k signature words (const + PIs match the input
	// AIG's leading nodes exactly).
	sig := make([][]uint64, 0, a.NumNodes())
	sig = append(sig, sigIn[:a.numPIs+1]...)
	cex := &cexRing{a: out, words: make([]uint64, 0, cexWords*a.NumNodes())}
	cex.grow()

	var solver *sat.Solver
	var cnf *CNFMap
	// expired flips once the context fires; from then on no further merge
	// proofs are attempted and the loop below is a pure structural copy.
	expired := false
	ctxTick := 0
	pollCtx := func() bool {
		if expired || ctx == nil {
			return expired
		}
		if ctxTick++; ctxTick >= 512 {
			ctxTick = 0
			expired = ctx.Err() != nil
		}
		return expired
	}
	// prove reports whether x ≡ y. A Sat answer's PI values become a
	// stored counterexample; PIs outside the solver's CNF cannot affect
	// either cone and take 0.
	prove := func(x, y Lit) bool {
		if solver == nil || solver.NumVars() > sweepSolverVars {
			if solver != nil {
				stats.Recycles++
			}
			solver = sat.New(0)
			cnf = &CNFMap{VarOf: make(map[uint32]int)}
		}
		stats.ProveCalls++
		lx := out.Encode(solver, cnf, x)
		ly := out.Encode(solver, cnf, y)
		solver.MaxConflicts = opt.MaxConflicts
		st := solver.SolveCtx(ctx, lx, ly.Not())
		if st == sat.Unsat {
			st = solver.SolveCtx(ctx, lx.Not(), ly)
		}
		if st == sat.Unsat {
			return true
		}
		stats.ProveFailed++
		if st == sat.Sat {
			cex.add(func(pi uint32) bool {
				v, ok := cnf.VarOf[pi]
				return ok && solver.Model(v)
			})
		}
		return false
	}

	// normEdge returns the polarity-normalized edge of a node (bit 0 of
	// signature word 0 cleared) — equivalence up to complement becomes
	// plain equality of normalized edges.
	normEdge := func(nd uint32) Lit {
		return MkLit(nd, sig[nd][0]&1 == 1)
	}
	classes := make(map[[2]uint64][]Lit)
	classKey := func(nd uint32) [2]uint64 {
		var key [2]uint64
		inv := sig[nd][0]&1 == 1
		for j := 0; j < k; j++ {
			w := sig[nd][j]
			if inv {
				w = ^w
			}
			key[j%2] ^= w*0x9e3779b97f4a7c15 + uint64(j)
		}
		return key
	}
	enroll := func(nd uint32) {
		key := classKey(nd)
		classes[key] = append(classes[key], normEdge(nd))
	}
	for nd := uint32(0); nd <= uint32(out.numPIs); nd++ {
		enroll(nd)
	}

	// Trace sampling: the merge loop reports nodes swept and merges so
	// far, so a long sweep shows as a moving gauge instead of a silent
	// gap (the "fraig sweep batches" view of the trace).
	obsSpan := obs.CurrentSpan(ctx)
	obsThr := obs.NewThrottle(100 * time.Millisecond)

	repr := make([]Lit, a.NumNodes())
	repr[0] = False
	for i := 1; i <= a.numPIs; i++ {
		repr[i] = MkLit(uint32(i), false)
	}
	for i := a.numPIs + 1; i < a.NumNodes(); i++ {
		if obsSpan != nil && i&0xfff == 0 && obsThr.Ok() {
			obsSpan.Gauge("fraig.swept", int64(i-a.numPIs))
			obsSpan.Gauge("fraig.merges", int64(stats.Merges))
		}
		e0 := a.fanin0[uint32(i)]
		e1 := a.fanin1[uint32(i)]
		f0 := repr[e0.Node()].NotIf(e0.Compl())
		f1 := repr[e1.Node()].NotIf(e1.Compl())
		e := out.And(f0, f1)
		nd := e.Node()
		if int(nd) >= len(sig) {
			// Fresh structural node: function-identical to input node i,
			// so its signature was already computed in the sharded pass.
			sig = append(sig, sigIn[i])
			cex.grow()
			me := normEdge(nd)
			key := classKey(nd)
			merged := false
			// Counterexamples only filter candidates; the classes keep
			// their keys and order, so the merges are the ones an
			// unfiltered sweep would make.
			for ci, cand := range classes[key] {
				if ci >= opt.MaxClassSize || pollCtx() {
					break
				}
				if !sameSig(sig, me, cand, k) {
					continue
				}
				if slot := cex.differ(me, cand); slot >= 0 {
					stats.CexSkipped++
					if onSkip != nil {
						onSkip(out, me, cand, cex.pattern(slot))
					}
					continue
				}
				if prove(me, cand) {
					// me ≡ cand, so node nd == cand adjusted for nd's
					// normalization polarity.
					e = cand.NotIf(me.Compl()).NotIf(e.Compl())
					merged = true
					stats.Merges++
					break
				}
			}
			if !merged {
				classes[key] = append(classes[key], me)
			}
		}
		repr[i] = e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), repr[p.Node()].NotIf(p.Compl()))
	}
	res := Compact(out)
	stats.NodesAfter = res.NumAnds()
	return res, stats
}

// cexWords is the size of the counterexample ring in 64-pattern words.
const cexWords = 4

// cexRing keeps the sweep's SAT counterexamples as simulation patterns
// over the output AIG a: cexWords words per node, node-major. Pattern n
// lives in bit slot n mod 64·cexWords, so once the ring is full a new
// counterexample overwrites the oldest one.
type cexRing struct {
	a     *AIG
	words []uint64
	n     int // patterns added so far
}

// grow simulates the nodes a gained since the last call.
func (r *cexRing) grow() {
	for nd := len(r.words) / cexWords; nd < r.a.NumNodes(); nd++ {
		if nd <= r.a.numPIs {
			r.words = append(r.words, make([]uint64, cexWords)...)
			continue
		}
		for w := 0; w < cexWords; w++ {
			r.words = append(r.words, r.and(uint32(nd), w))
		}
	}
}

func (r *cexRing) and(nd uint32, w int) uint64 {
	return r.lit(r.a.fanin0[nd], w) & r.lit(r.a.fanin1[nd], w)
}

func (r *cexRing) lit(e Lit, w int) uint64 {
	v := r.words[int(e.Node())*cexWords+w]
	if e.Compl() {
		return ^v
	}
	return v
}

// add stores the PI assignment val as the newest pattern and
// re-simulates the one word it landed in.
func (r *cexRing) add(val func(pi uint32) bool) {
	slot := r.n % (64 * cexWords)
	r.n++
	w, bit := slot/64, uint64(1)<<(slot%64)
	for pi := 1; pi <= r.a.numPIs; pi++ {
		i := pi*cexWords + w
		if val(uint32(pi)) {
			r.words[i] |= bit
		} else {
			r.words[i] &^= bit
		}
	}
	for nd := r.a.numPIs + 1; nd < r.a.NumNodes(); nd++ {
		r.words[nd*cexWords+w] = r.and(uint32(nd), w)
	}
}

// differ returns a pattern slot on which edges x and y take different
// values, or -1 if they agree on every stored pattern.
func (r *cexRing) differ(x, y Lit) int {
	for w := 0; w < cexWords && w*64 < r.n; w++ {
		d := r.lit(x, w) ^ r.lit(y, w)
		if valid := r.n - w*64; valid < 64 {
			d &= uint64(1)<<valid - 1
		}
		if d != 0 {
			return w*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// pattern returns the PI assignment stored in slot.
func (r *cexRing) pattern(slot int) []bool {
	in := make([]bool, r.a.numPIs)
	for pi := range in {
		in[pi] = r.words[(pi+1)*cexWords+slot/64]>>(slot%64)&1 == 1
	}
	return in
}

func sameSig(sig [][]uint64, x, y Lit, k int) bool {
	for j := 0; j < k; j++ {
		wx := sig[x.Node()][j]
		if x.Compl() {
			wx = ^wx
		}
		wy := sig[y.Node()][j]
		if y.Compl() {
			wy = ^wy
		}
		if wx != wy {
			return false
		}
	}
	return true
}

// Compact copies the PO cones into a fresh structurally hashed AIG,
// dropping unreachable nodes.
func Compact(a *AIG) *AIG {
	out := New(a.PINames())
	memo := make([]Lit, a.NumNodes())
	for i := range memo {
		memo[i] = Lit(^uint32(0))
	}
	memo[0] = False
	for i := 1; i <= a.numPIs; i++ {
		memo[i] = MkLit(uint32(i), false)
	}
	var rec func(n uint32) Lit
	rec = func(n uint32) Lit {
		if memo[n] != Lit(^uint32(0)) {
			return memo[n]
		}
		f0 := rec(a.fanin0[n].Node()).NotIf(a.fanin0[n].Compl())
		f1 := rec(a.fanin1[n].Node()).NotIf(a.fanin1[n].Compl())
		e := out.And(f0, f1)
		memo[n] = e
		return e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), rec(p.Node()).NotIf(p.Compl()))
	}
	return out
}

// Balance rebuilds the AIG with balanced conjunction trees: multi-input
// ANDs are re-associated to logarithmic depth, the delay-oriented
// restructuring step of the synthesis script substitute.
func Balance(a *AIG) *AIG {
	out := New(a.PINames())
	memo := make([]Lit, a.NumNodes())
	for i := range memo {
		memo[i] = Lit(^uint32(0))
	}
	memo[0] = False
	for i := 1; i <= a.numPIs; i++ {
		memo[i] = MkLit(uint32(i), false)
	}
	// Fanout counts: a multi-fanout node is a tree boundary (its value
	// is shared, re-associating through it would duplicate logic).
	fanout := make([]int, a.NumNodes())
	for i := a.numPIs + 1; i < a.NumNodes(); i++ {
		fanout[a.fanin0[uint32(i)].Node()]++
		fanout[a.fanin1[uint32(i)].Node()]++
	}
	for i := 0; i < a.NumPOs(); i++ {
		fanout[a.PO(i).Node()]++
	}
	// Incremental level tracking for the output AIG: nodes are created
	// in topological order, so a new node's fanin levels are known.
	lev := make([]int, out.NumNodes())
	levOf := func(e Lit) int { return lev[e.Node()] }
	andTracked := func(x, y Lit) Lit {
		e := out.And(x, y)
		for len(lev) < out.NumNodes() {
			n := uint32(len(lev))
			l0 := lev[out.fanin0[n].Node()]
			if l1 := lev[out.fanin1[n].Node()]; l1 > l0 {
				l0 = l1
			}
			lev = append(lev, l0+1)
		}
		return e
	}
	// balancedAnd conjoins leaves pairing the two shallowest values
	// first (Huffman-style), minimizing output level under unit delays.
	balancedAnd := func(leaves []Lit) Lit {
		if len(leaves) == 0 {
			return True
		}
		work := append([]Lit(nil), leaves...)
		for len(work) > 1 {
			best := func(skip int) int {
				b := -1
				for i := range work {
					if i == skip {
						continue
					}
					if b == -1 || levOf(work[i]) < levOf(work[b]) {
						b = i
					}
				}
				return b
			}
			i := best(-1)
			j := best(i)
			merged := andTracked(work[i], work[j])
			if i > j {
				i, j = j, i
			}
			work[i] = merged
			work = append(work[:j], work[j+1:]...)
		}
		return work[0]
	}
	// collect gathers the conjunction leaves of n's AND tree, stopping
	// at complemented edges, PIs, and shared nodes.
	var build func(n uint32) Lit
	var collect func(e Lit, leaves *[]Lit)
	collect = func(e Lit, leaves *[]Lit) {
		n := e.Node()
		if e.Compl() || a.IsPI(n) || a.IsConst(n) || fanout[n] > 1 {
			*leaves = append(*leaves, build(n).NotIf(e.Compl()))
			return
		}
		collect(a.fanin0[n], leaves)
		collect(a.fanin1[n], leaves)
	}
	build = func(n uint32) Lit {
		if memo[n] != Lit(^uint32(0)) {
			return memo[n]
		}
		if a.IsPI(n) || a.IsConst(n) {
			panic("aig: Balance leaf not prefilled")
		}
		var leaves []Lit
		collect(a.fanin0[n], &leaves)
		collect(a.fanin1[n], &leaves)
		e := balancedAnd(leaves)
		memo[n] = e
		return e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), build(p.Node()).NotIf(p.Compl()))
	}
	return Compact(out)
}
