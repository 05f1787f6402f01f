package main

import (
	"fmt"
	"math/rand"
	"time"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/sim"
	"seqver/internal/synth"
)

// cbfShapes are the mid-to-large Table 1 shapes whose prepared circuit
// is checked against its optimized version on the CBF path. They span
// 65 to 515 latches, so they keep the paper's names (seededMaxLatches);
// the seed picks their mutants.
var cbfShapes = []string{"prolog", "s1423", "minmax32", "s3271", "s9234", "s3384", "s6669", "s15850"}

// pair is one verification job with its known answer.
type pair struct {
	name             string
	golden, revised  *netlist.Circuit
	acyclic          bool // CBF pair: golden is already prepared
	want             cec.Verdict
	latches, exposed int
	area             float64 // normalized mapped area of the revision; 0 for EDBF pairs
}

// buildPairs makes the verify workload's job list: every Table 2 shape
// against its synth.Optimize revision (load-enabled, so EDBF), every
// cbfShapes shape prepared and checked against its synthesized,
// min-period-retimed and mapped version (CBF), and one gate-flip mutant
// per CBF pair whose difference 3-valued simulation has confirmed.
func buildPairs(seed int64) ([]pair, error) {
	var pairs []pair
	sopt := synth.DefaultScript()
	for _, sp := range bench.Table2Specs {
		a := bench.GenerateIndustrial(sp)
		rev, err := synth.Optimize(a, sopt)
		if err != nil {
			return nil, fmt.Errorf("%s: synth: %w", sp.Name, err)
		}
		prep, err := core.Prepare(a, core.PrepareOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", sp.Name, err)
		}
		pairs = append(pairs, pair{name: sp.Name, golden: a, revised: rev, want: cec.Equivalent,
			latches: len(a.Latches), exposed: len(prep.Exposed)})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range cbfShapes {
		sp, ok := table1Spec(name)
		if !ok {
			return nil, fmt.Errorf("no Table 1 shape %q", name)
		}
		p, err := cbfPair(sp, sopt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		m, err := mutant(p, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		pairs = append(pairs, p, m)
	}
	return pairs, nil
}

func table1Spec(name string) (bench.Spec, bool) {
	for _, sp := range bench.Table1Specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return bench.Spec{}, false
}

// cbfPair builds column C of Table 1 for one shape with the default area
// minimizer: prepare A into B, synthesize, retime for minimum period and
// map. Its area is normalized like Table 1's, against the mapped
// combinationally-optimized A.
func cbfPair(sp bench.Spec, sopt synth.Options) (pair, error) {
	a := bench.Generate(sp)
	prep, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		return pair{}, fmt.Errorf("prepare: %w", err)
	}
	bSyn, err := synth.Optimize(prep.Circuit, sopt)
	if err != nil {
		return pair{}, fmt.Errorf("synth: %w", err)
	}
	rt, err := retime.MinPeriod(bSyn)
	if err != nil {
		return pair{}, fmt.Errorf("retime: %w", err)
	}
	mapped, rep, err := synth.TechMap(rt.Circuit)
	if err != nil {
		return pair{}, fmt.Errorf("map: %w", err)
	}
	d, err := synth.Optimize(a, sopt)
	if err != nil {
		return pair{}, fmt.Errorf("synth D: %w", err)
	}
	_, dRep, err := synth.TechMap(d)
	if err != nil {
		return pair{}, fmt.Errorf("map D: %w", err)
	}
	area := (rep.Area + synth.AreaLatch*float64(len(prep.Exposed))) / dRep.Area
	return pair{name: sp.Name, golden: prep.Circuit, revised: mapped, acyclic: true,
		want: cec.Equivalent, latches: len(a.Latches), exposed: len(prep.Exposed), area: area}, nil
}

// mutantTries bounds the gates tried, and simTries the input sequences
// simulated per gate, before a CBF pair is declared unmutatable.
const (
	mutantTries = 64
	simTries    = 8
)

// mutant flips one gate of the revised circuit (NAND and NOR swap, an
// inverter becomes a buffer) and keeps the first flip that 3-valued
// simulation from the all-X state shows to change an output. The known
// answer, NotEquivalent, thus comes from simulation, not from cec.
func mutant(p pair, rng *rand.Rand) (pair, error) {
	var gates []int
	for _, n := range p.revised.Nodes {
		if n.Kind == netlist.KindGate && (n.Op == netlist.OpNand || n.Op == netlist.OpNor || n.Op == netlist.OpNot) {
			gates = append(gates, n.ID)
		}
	}
	if len(gates) == 0 {
		return pair{}, fmt.Errorf("no gate to mutate")
	}
	depth, err := seqver.SequentialDepth(p.revised)
	if err != nil {
		return pair{}, err
	}
	for try := 0; try < mutantTries; try++ {
		m := p.revised.Clone()
		n := m.Nodes[gates[rng.Intn(len(gates))]]
		switch n.Op {
		case netlist.OpNand:
			n.Op = netlist.OpNor
		case netlist.OpNor:
			n.Op = netlist.OpNand
		case netlist.OpNot:
			n.Op = netlist.OpBuf
		}
		for s := 0; s < simTries; s++ {
			if differs3(p.golden, m, 2*depth+4, rng) {
				return pair{name: p.name + ".mut", golden: p.golden, revised: m, acyclic: true,
					want: cec.Inequivalent, latches: p.latches, exposed: p.exposed}, nil
			}
		}
	}
	return pair{}, fmt.Errorf("no gate flip found that simulation distinguishes")
}

// differs3 simulates both circuits in three-valued logic from the all-X
// state on one random input sequence and reports whether some output
// is 0 in one and 1 in the other. Such a difference holds from every
// power-up state, so the circuits are not equivalent.
func differs3(c1, c2 *netlist.Circuit, length int, rng *rand.Rand) bool {
	names := c1.InputNames()
	seq1 := make([][]sim.Val3, length)
	seq2 := make([][]sim.Val3, length)
	pos2 := map[string]int{}
	for i, n := range c2.InputNames() {
		pos2[n] = i
	}
	for t := range seq1 {
		seq1[t] = make([]sim.Val3, len(c1.Inputs))
		seq2[t] = make([]sim.Val3, len(c2.Inputs))
		for i := range seq2[t] {
			seq2[t][i] = sim.VX
		}
		for i, n := range names {
			v := sim.FromBool(rng.Intn(2) == 1)
			seq1[t][i] = v
			if j, ok := pos2[n]; ok {
				seq2[t][j] = v
			}
		}
	}
	o1 := sim.New(c1).Run3(seq1)
	o2 := sim.New(c2).Run3(seq2)
	out2 := map[string]int{}
	for i, o := range c2.Outputs {
		out2[o.Name] = i
	}
	for t := range o1 {
		for i, o := range c1.Outputs {
			j, ok := out2[o.Name]
			if !ok {
				continue
			}
			a, b := o1[t][i], o2[t][j]
			if a != sim.VX && b != sim.VX && a != b {
				return true
			}
		}
	}
	return false
}

// verifyOne runs one pair through the public entry point and checks the
// answer: the verdict must match, and a counterexample must replay.
func verifyOne(r *result, p pair, opt seqver.Options) {
	var rep *seqver.Report
	var err error
	if p.acyclic {
		rep, err = seqver.VerifyAcyclic(p.golden, p.revised, opt)
	} else {
		rep, err = seqver.Verify(p.golden, p.revised, seqver.PrepareOptions{}, opt)
	}
	r.attempted++
	if err != nil {
		r.failed++
		r.note("verify %s: %v", p.name, err)
		return
	}
	checkVerdict(r, p, rep.Result.Verdict, rep.Result.Counterexample)
}

// checkVerdict compares a verdict with the pair's known answer. An
// undecided verdict is a failure; a wrong verdict or a counterexample
// that does not replay is also a wrong answer.
func checkVerdict(r *result, p pair, got cec.Verdict, cex map[string]bool) {
	switch {
	case got == cec.Undecided:
		r.failed++
		r.note("%s: undecided", p.name)
	case got != p.want:
		r.failed++
		r.wrongf("%s: verdict %v, want %v", p.name, got, p.want)
	case got == cec.Inequivalent:
		if _, err := core.ReplayCounterexample(p.golden, p.revised, cex); err != nil {
			r.failed++
			r.wrongf("%s: counterexample does not replay: %v", p.name, err)
		}
	}
}

// quality adds the two deterministic quality metrics of a pair list:
// the geometric mean of the CBF revisions' normalized areas, and the
// share of latches exposed.
func quality(r *result, pairs []pair) {
	var areas []float64
	exposed, latches := 0, 0
	for _, p := range pairs {
		if p.area > 0 {
			areas = append(areas, p.area)
		}
		if p.want == cec.Equivalent {
			exposed += p.exposed
			latches += p.latches
		}
	}
	r.add("area_ratio", geomean(areas), "ratio")
	r.add("exposed_pct", 100*float64(exposed)/float64(latches), "%")
}

func runVerify(cfg config) (*result, error) {
	pairs, setup, err := setUp(func() ([]pair, error) { return buildPairs(cfg.seed) })
	if err != nil {
		return nil, err
	}
	r := &result{}
	if cfg.trace {
		return r, traceVerify(cfg, pairs, r)
	}
	var lat latencies
	opt := seqver.Options{CEC: cecOptions(cfg.seed)}
	walls, err := measure(cfg.window, func() (time.Duration, error) {
		passStart := time.Now()
		for _, p := range pairs {
			start := time.Now()
			verifyOne(r, p, opt)
			lat = append(lat, ms(time.Since(start)))
		}
		return time.Since(passStart), nil
	})
	if err != nil {
		return nil, err
	}
	if err := addCommon(r, setup, walls); err != nil {
		return nil, err
	}
	lat.note(r, "verify")
	quality(r, pairs)
	r.note("verify: %d pairs per pass", len(pairs))
	return r, nil
}

// traceVerify times one untraced pass, then runs the pairs again with
// seqver.Verify and VerifyAcyclic recomposed from the calls they make,
// each under a span.
func traceVerify(cfg config, pairs []pair, r *result) error {
	start := time.Now()
	for _, p := range pairs {
		verifyOne(r, p, seqver.Options{CEC: cecOptions(cfg.seed)})
	}
	untraced := time.Since(start)

	tr := newTracer()
	c := &counts{}
	start = time.Now()
	for _, p := range pairs {
		var res *cec.Result
		err := tr.root(p.name).do("bench.verify", func(s scope) error {
			var err error
			res, err = tracedVerify(s, c, p, cecOptions(cfg.seed))
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			r.note("verify %s: %v", p.name, err)
			continue
		}
		checkVerdict(r, p, res.Verdict, res.Counterexample)
	}
	traced := time.Since(start)
	if err := tr.write(cfg.spansTo); err != nil {
		return err
	}
	addLayerMetrics(r, tr, c, traced.Seconds()/untraced.Seconds())
	r.note("verify: traced pass %.3fs, untraced pass %.3fs, %d spans in %s",
		traced.Seconds(), untraced.Seconds(), len(tr.spans), cfg.spansTo)
	return nil
}

// tracedVerify is core.Verify (for EDBF pairs) or core.VerifyAcyclic
// (for CBF pairs) recomposed: prepare and match the exposure, unroll
// both sides, and check the unrollings.
func tracedVerify(s scope, c *counts, p pair, copt cec.Options) (*cec.Result, error) {
	g, rv := p.golden, p.revised
	if !p.acyclic {
		prep, err := prepare(s, c, g)
		if err != nil {
			return nil, err
		}
		g = prep.Circuit
		err = s.do("core.match_exposure", func(scope) error {
			var err error
			rv, err = core.MatchExposure(rv, prep.Exposed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var u1, u2 *netlist.Circuit
	var err error
	if g.IsRegular() && rv.IsRegular() {
		if u1, err = unrollCBF(s, c, g); err != nil {
			return nil, err
		}
		if u2, err = unrollCBF(s, c, rv); err != nil {
			return nil, err
		}
		if _, err = seqver.SequentialDepth(g); err != nil {
			return nil, err
		}
	} else {
		cx := edbf.NewCtx()
		err = s.do("edbf.unroll", func(scope) error {
			if u1, err = cx.Unroll(g); err != nil {
				return err
			}
			u2, err = cx.Unroll(rv)
			return err
		})
		if err != nil {
			return nil, err
		}
		c.edbfGates += u1.NumGates() + u2.NumGates()
		c.edbfEvents += cx.NumEvents()
	}
	return check(s, c, u1, u2, copt)
}
