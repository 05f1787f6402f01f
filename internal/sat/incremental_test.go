package sat

import (
	"math/rand"
	"testing"
)

func TestReduceDBReclaimsTopLevelPropagatedReasons(t *testing.T) {
	// Binary clauses (x ∨ y_i) become the top-level antecedents of y_i
	// once the unit ¬x propagates, so they are locked reasons. A
	// MaxLearned-forced reduction must release those level-0 reasons
	// (never dereferenced again) and reclaim the satisfied clauses.
	const spectators = 70
	s := New(0)
	s.MaxLearned = 16
	x := MkLit(0, false)
	for i := 1; i <= spectators; i++ {
		s.AddClause(x, MkLit(i, false))
	}
	s.AddClause(x.Not())
	for cref := 0; cref < spectators; cref++ {
		if !s.locked(cref) {
			t.Fatalf("setup: clause %d is not a top-level reason", cref)
		}
	}
	// A guarded pigeonhole over fresh variables supplies the conflicts:
	// every clause carries ¬g, so assuming g is UNSAT without latching
	// the solver into top-level unsatisfiability.
	g := MkLit(spectators+1, false)
	base := spectators + 2
	const pigeons, holes = 5, 4
	v := func(p, h int) int { return base + p*holes + h }
	for p := 0; p < pigeons; p++ {
		cl := []Lit{g.Not()}
		for h := 0; h < holes; h++ {
			cl = append(cl, MkLit(v(p, h), false))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(g.Not(), MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
	if st := s.Solve(g); st != Unsat {
		t.Fatalf("guarded pigeonhole: st=%v", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatalf("no reductions despite cap (learned=%d)", s.Stats.Learned)
	}
	for _, c := range s.clauses {
		for _, l := range c.lits {
			if l.Var() <= spectators {
				t.Fatalf("top-level-satisfied clause %v survived the reduction", c.lits)
			}
		}
	}
	if s.Stats.Deleted < spectators {
		t.Fatalf("Stats.Deleted=%d, want at least the %d reclaimed reasons", s.Stats.Deleted, spectators)
	}
	// The reclaimed clauses' consequences stay top-level facts.
	if st := s.Solve(MkLit(5, true)); st != Unsat {
		t.Fatalf("top-level fact y5 lost after reclamation: st=%v", st)
	}
	st, model := s.SolveModel()
	if st != Sat {
		t.Fatalf("base formula must stay SAT: st=%v", st)
	}
	if model[0] {
		t.Fatal("model violates the unit ¬x")
	}
	for i := 1; i <= spectators; i++ {
		if !model[i] {
			t.Fatalf("model violates reclaimed clause (x ∨ y%d)", i)
		}
	}
}

func TestReduceDBKeepsVerdictsCorrect(t *testing.T) {
	// Force aggressive reductions with a tiny cap and check random
	// instances against brute force — clause deletion must never flip a
	// verdict or corrupt the solver for later incremental calls.
	rng := rand.New(rand.NewSource(99))
	const nvars = 10
	for trial := 0; trial < 60; trial++ {
		clauses := make([][]Lit, 38+rng.Intn(10))
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		s := New(nvars)
		s.MaxLearned = 6
		ok := true
		for _, cl := range clauses {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		var got Status
		if !ok {
			got = Unsat
		} else {
			got = s.Solve()
			// A second probe on the reduced database must agree.
			if again := s.Solve(); again != got {
				t.Fatalf("trial %d: verdict changed %v -> %v after reduction", trial, got, again)
			}
		}
		want := Sat
		if !bruteForce3SAT(nvars, clauses) {
			want = Unsat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v (reductions=%d deleted=%d)",
				trial, got, want, s.Stats.Reductions, s.Stats.Deleted)
		}
	}
}

func TestReduceDBTriggersAndShrinks(t *testing.T) {
	// Pigeonhole (5 pigeons, 4 holes) generates plenty of conflicts; a
	// small cap must provoke reductions and keep the live learned count
	// near the cap rather than at Stats.Learned.
	s := New(0)
	s.MaxLearned = 16
	addPigeonhole(s, 5)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatalf("no reductions despite cap (learned=%d)", s.Stats.Learned)
	}
	if s.NumLearned() > 2*16+8 {
		t.Fatalf("live learned %d far above cap", s.NumLearned())
	}
	if s.Stats.Deleted == 0 {
		t.Fatal("Stats.Deleted not accounted")
	}
}

// addPigeonhole encodes n pigeons into n-1 holes (UNSAT).
func addPigeonhole(s *Solver, n int) {
	holes := n - 1
	v := func(p, h int) int { return p*holes + h }
	for p := 0; p < n; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = MkLit(v(p, h), false)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
}
