package aig

import (
	"math/rand"
	"testing"

	"seqver/internal/sat"
)

// fraigReference is the sweep before counterexample-guided filtering and
// solver recycling: every candidate whose signature matches goes to one
// sweep-wide solver, and each SAT model is discarded. It is the oracle
// for FraigEx's merges. unknown reports whether any proof hit the
// conflict budget; only then may the two sweeps legitimately disagree.
func fraigReference(a *AIG, opt FraigOptions) (res *AIG, stats *FraigStats, unknown bool) {
	opt.defaults()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	k := opt.SimWords
	stats = &FraigStats{NodesBefore: a.NumAnds()}

	piPatterns := make([][]uint64, a.numPIs)
	for i := range piPatterns {
		ws := make([]uint64, k)
		for j := range ws {
			ws[j] = rng.Uint64()
		}
		piPatterns[i] = ws
	}
	sigIn := a.SimWordsK(nil, piPatterns, k, 1)

	out := New(a.PINames())
	sig := make([][]uint64, 0, a.NumNodes())
	sig = append(sig, sigIn[:a.numPIs+1]...)

	solver := sat.New(0)
	cnf := &CNFMap{VarOf: make(map[uint32]int)}
	prove := func(x, y Lit) bool {
		stats.ProveCalls++
		lx := out.Encode(solver, cnf, x)
		ly := out.Encode(solver, cnf, y)
		solver.MaxConflicts = opt.MaxConflicts
		st := solver.Solve(lx, ly.Not())
		if st == sat.Unsat {
			st = solver.Solve(lx.Not(), ly)
		}
		if st == sat.Unknown {
			unknown = true
		}
		if st != sat.Unsat {
			stats.ProveFailed++
		}
		return st == sat.Unsat
	}
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
	for nd := uint32(0); nd <= uint32(out.numPIs); nd++ {
		key := classKey(nd)
		classes[key] = append(classes[key], normEdge(nd))
	}

	repr := make([]Lit, a.NumNodes())
	for i := 1; i <= a.numPIs; i++ {
		repr[i] = MkLit(uint32(i), false)
	}
	for i := a.numPIs + 1; i < a.NumNodes(); i++ {
		e0 := a.fanin0[uint32(i)]
		e1 := a.fanin1[uint32(i)]
		e := out.And(repr[e0.Node()].NotIf(e0.Compl()), repr[e1.Node()].NotIf(e1.Compl()))
		nd := e.Node()
		if int(nd) >= len(sig) {
			sig = append(sig, sigIn[i])
			me := normEdge(nd)
			key := classKey(nd)
			merged := false
			for ci, cand := range classes[key] {
				if ci >= opt.MaxClassSize {
					break
				}
				if sameSig(sig, me, cand, k) && prove(me, cand) {
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
	res = Compact(out)
	stats.NodesAfter = res.NumAnds()
	return res, stats, unknown
}

// plantedAIG is randomAIG over nv PIs plus logic that makes signature
// classes lie and merges pay off: wide ANDs of random PI literals look
// constant under a few hundred random patterns but are not (each one a
// false candidate SAT must refute), and re-derived two-input functions
// are true duplicates the strash cannot see.
func plantedAIG(rng *rand.Rand, nv, ops int) *AIG {
	a := randomAIG(rng, nv, ops)
	var pool []Lit
	for n := 1; n < a.NumNodes(); n++ {
		pool = append(pool, MkLit(uint32(n), false))
	}
	lit := func() Lit { return pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 0) }
	for i := 0; i < 6; i++ {
		// Near-constant: a conjunction of 6..10 random PI literals.
		w := 6 + rng.Intn(5)
		ls := make([]Lit, w)
		for j := range ls {
			ls[j] = a.PI(rng.Intn(nv)).NotIf(rng.Intn(2) == 0)
		}
		a.AddPO("nc"+string(rune('a'+i)), a.AndN(ls))
		// Duplicates the strash cannot fold: (x·y)·(x+y) is x·y, and
		// (x⊕y)⊕(x·¬y) is ¬x·y.
		x, y := lit(), lit()
		a.AddPO("du"+string(rune('a'+i)), a.And(a.And(x, y), a.Or(x, y)))
		a.AddPO("dv"+string(rune('a'+i)), a.Xor(a.Xor(x, y), a.And(x, y.Not())))
	}
	return a
}

// TestFraigMatchesReference pins the counterexample-guided sweep to the
// plain one: the cex filter skips only pairs SAT would refute, so when
// no proof hits its budget the merges and the result are identical.
// Every skipped pair must differ on its witnessing pattern, which is
// checked here by direct evaluation rather than bit-parallel simulation.
func TestFraigMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	var skipped, compared, refProve, newProve int
	for trial := 0; trial < 40; trial++ {
		nv := 10 + rng.Intn(6)
		a := plantedAIG(rng, nv, 80+rng.Intn(120))
		opt := FraigOptions{Seed: int64(trial), SimWords: 1 + rng.Intn(4)}
		want, wst, unknown := fraigReference(a, opt)
		got, gst := fraigSweep(nil, a, opt, func(out *AIG, x, y Lit, in []bool) {
			view := &AIG{fanin0: out.fanin0, fanin1: out.fanin1, numPIs: out.numPIs, pos: []Lit{x, y}}
			if v := view.Eval(in); v[0] == v[1] {
				t.Fatalf("trial %d: skipped %v/%v agree on their witness", trial, x, y)
			}
			skipped++
		})
		if unknown {
			continue
		}
		if gst.Merges != wst.Merges || gst.NodesAfter != wst.NodesAfter {
			t.Fatalf("trial %d: merges/nodes %d/%d, reference %d/%d",
				trial, gst.Merges, gst.NodesAfter, wst.Merges, wst.NodesAfter)
		}
		if got.StructuralHash() != want.StructuralHash() {
			t.Fatalf("trial %d: result differs from the reference sweep", trial)
		}
		if gst.ProveCalls+gst.CexSkipped != wst.ProveCalls {
			t.Fatalf("trial %d: %d proofs + %d skips, reference made %d proofs",
				trial, gst.ProveCalls, gst.CexSkipped, wst.ProveCalls)
		}
		compared++
		refProve += wst.ProveCalls
		newProve += gst.ProveCalls
	}
	if skipped == 0 || compared < 30 {
		t.Fatalf("%d skips over %d compared trials: the planted logic no longer exercises the filter", skipped, compared)
	}
	t.Logf("%d trials: prove calls %d -> %d, %d skipped by counterexamples", compared, refProve, newProve, skipped)
}

// TestFraigRecyclesSolver sweeps an AIG large enough that the sweep
// solver passes sweepSolverVars, and checks the recycled sweep still
// matches the reference.
func TestFraigRecyclesSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	a := plantedAIG(rng, 24, 3000)
	want, wst, unknown := fraigReference(a, FraigOptions{})
	got, gst := FraigEx(a, FraigOptions{})
	if gst.Recycles == 0 {
		t.Fatalf("no recycle on a %d-node sweep: %+v", a.NumAnds(), gst)
	}
	if unknown {
		t.Fatal("reference hit the conflict budget: pick an AIG both sweeps decide")
	}
	if gst.Merges != wst.Merges || got.StructuralHash() != want.StructuralHash() {
		t.Fatalf("recycled sweep diverged: %d merges vs %d", gst.Merges, wst.Merges)
	}
}
