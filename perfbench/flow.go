package main

import (
	"fmt"
	"math"
	"time"

	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// flowMaxLatches keeps s38417 (1464 latches) out: alone it takes most
// of the full table's time.
const flowMaxLatches = 515

// seededMaxLatches splits the Table 1 shapes. The smaller ones are
// generated from the seed: their names get a ".s<seed>" suffix, and the
// generators seed from the name. The mid-to-large ones keep the paper's
// names, because the retime and check time of one such circuit varies
// too much between seeds (s15850: 1.9 to 4.8 s) for a run's figures to
// stay inside the bounds; three seeded circuits per shape still moved
// flow's wall_s by 22% (quartile spread over five seeds).
const seededMaxLatches = 60

// seededName is the spec name a shape is generated under.
func seededName(name string, latches int, seed int64) string {
	if latches >= seededMaxLatches {
		return name
	}
	return fmt.Sprintf("%s.s%d", name, seed)
}

// flowSpecs lists the Table 1 shapes up to flowMaxLatches latches under
// their seeded names, and generates each once to count its latches.
func flowSpecs(seed int64) ([]bench.Spec, int) {
	var specs []bench.Spec
	latches := 0
	for _, sp := range bench.Table1Specs {
		if sp.Latches > flowMaxLatches {
			continue
		}
		sp.Name = seededName(sp.Name, sp.Latches, seed)
		latches += len(bench.Generate(sp).Latches)
		specs = append(specs, sp)
	}
	return specs, latches
}

// flowTally accumulates the quality columns of a pass.
type flowTally struct {
	areas            []float64 // every C and E normalized area
	exposed, latches int
}

func (t *flowTally) add(row *bench.Table1Row) {
	t.areas = append(t.areas, row.AreaC, row.AreaE)
	t.exposed += int(math.Round(row.PctExp * float64(row.LatchesA) / 100))
	t.latches += row.LatchesA
}

// checkRow classifies one row: a flow error or an undecided check is a
// failure; an inequivalent verdict is also a wrong answer.
func checkRow(r *result, sp bench.Spec, row *bench.Table1Row, err error) bool {
	r.attempted++
	switch {
	case row != nil && row.Verdict == cec.Inequivalent:
		r.failed++
		r.wrongf("flow %s: H vs J inequivalent", sp.Name)
	case err != nil:
		r.failed++
		r.note("flow %s: %v", sp.Name, err)
	case row.Verdict != cec.Equivalent:
		r.failed++
		r.note("flow %s: verdict %v", sp.Name, row.Verdict)
	default:
		return true
	}
	return false
}

func runFlow(cfg config) (*result, error) {
	type input struct {
		specs   []bench.Spec
		latches int
	}
	in, setup, err := setUp(func() (input, error) {
		specs, latches := flowSpecs(cfg.seed)
		return input{specs, latches}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &result{}
	if cfg.trace {
		return r, traceFlow(cfg, in.specs, r)
	}
	var lat latencies
	var tally *flowTally
	walls, err := measure(cfg.window, func() (time.Duration, error) {
		t := &flowTally{}
		passStart := time.Now()
		for _, sp := range in.specs {
			start := time.Now()
			row, err := bench.RunTable1Row(sp, bench.Table1Options{CEC: cecOptions(cfg.seed)})
			lat = append(lat, ms(time.Since(start)))
			if checkRow(r, sp, row, err) {
				t.add(row)
			}
		}
		wall := time.Since(passStart)
		if tally == nil {
			tally = t
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	if err := addCommon(r, setup, walls); err != nil {
		return nil, err
	}
	lat.note(r, "flow")
	r.add("area_ratio", geomean(tally.areas), "ratio")
	r.add("exposed_pct", 100*float64(tally.exposed)/float64(tally.latches), "%")
	r.note("flow: %d rows per pass over %d latches", len(in.specs), in.latches)
	return r, nil
}

// traceFlow runs the job list once through bench.RunTable1Row without
// spans, then once recomposed from the same public calls under spans,
// and requires both to produce the same Table 1 rows, so the spans
// describe the program the untraced run timed.
func traceFlow(cfg config, specs []bench.Spec, r *result) error {
	start := time.Now()
	plain := make([]*bench.Table1Row, len(specs))
	for i, sp := range specs {
		row, err := bench.RunTable1Row(sp, bench.Table1Options{CEC: cecOptions(cfg.seed)})
		if checkRow(r, sp, row, err) {
			plain[i] = row
		}
	}
	untraced := time.Since(start)

	tr := newTracer()
	c := &counts{}
	start = time.Now()
	for i, sp := range specs {
		var row *bench.Table1Row
		err := tr.root(sp.Name).do("bench.row", func(s scope) error {
			var err error
			row, err = tracedRow(s, c, sp, cecOptions(cfg.seed))
			return err
		})
		if !checkRow(r, sp, row, err) || plain[i] == nil {
			continue
		}
		got, want := *row, *plain[i]
		got.Verify, want.Verify = 0, 0
		if got != want {
			r.wrongf("flow %s: traced row %+v differs from RunTable1Row %+v", sp.Name, got, want)
		}
	}
	traced := time.Since(start)
	if err := tr.write(cfg.spansTo); err != nil {
		return err
	}
	addLayerMetrics(r, tr, c, traced.Seconds()/untraced.Seconds())
	r.note("flow: traced pass %.3fs, untraced pass %.3fs, %d spans in %s",
		traced.Seconds(), untraced.Seconds(), len(tr.spans), cfg.spansTo)
	return nil
}

// tracedRow is bench.RunTable1Row recomposed from the same public calls
// in the same order, each under a span named after its layer.
func tracedRow(s scope, c *counts, sp bench.Spec, copt cec.Options) (*bench.Table1Row, error) {
	sopt := synth.DefaultScript()
	row := &bench.Table1Row{Name: sp.Name}
	var a *netlist.Circuit
	s.do("bench.generate", func(scope) error { a = bench.Generate(sp); return nil })
	row.LatchesA = len(a.Latches)

	prep, err := prepare(s, c, a)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", sp.Name, err)
	}
	b := prep.Circuit
	row.PctExp = 100 * float64(len(prep.Exposed)) / float64(max(1, row.LatchesA))

	d, err := optimize(s, c, a, sopt)
	if err != nil {
		return nil, fmt.Errorf("%s: synth D: %w", sp.Name, err)
	}
	_, dRep, err := techMap(s, c, d)
	if err != nil {
		return nil, fmt.Errorf("%s: map D: %w", sp.Name, err)
	}
	row.DelayD = dRep.Delay

	bSyn, err := optimize(s, c, b, sopt)
	if err != nil {
		return nil, fmt.Errorf("%s: synth B: %w", sp.Name, err)
	}
	cRes, cMapped, cRep, err := bestMinPeriod(s, c, bSyn)
	if err != nil {
		return nil, fmt.Errorf("%s: retime C: %w", sp.Name, err)
	}
	exposedArea := synth.AreaLatch * float64(len(prep.Exposed))
	row.LatchesC = len(cRes.Circuit.Latches) + len(prep.Exposed)
	row.DelayC = cRep.Delay
	row.AreaC = ratio(cRep.Area+exposedArea, dRep.Area)

	fRes, err := retimeThenReport(s, c, a, sopt, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: F: %w", sp.Name, err)
	}
	row.LatchesF, row.AreaF, row.DelayF = fRes.latches, ratio(fRes.area, dRep.Area), fRes.delay

	gRes, err := retimeThenReport(s, c, a, sopt, dRep.Delay)
	if err != nil {
		return nil, fmt.Errorf("%s: G: %w", sp.Name, err)
	}
	row.LatchesG, row.AreaG = gRes.latches, ratio(gRes.area, dRep.Area)

	eRes, err := retimeThenReport(s, c, b, sopt, dRep.Delay)
	if err != nil {
		return nil, fmt.Errorf("%s: E: %w", sp.Name, err)
	}
	row.LatchesE = eRes.latches + len(prep.Exposed)
	row.AreaE = ratio(eRes.area+exposedArea, dRep.Area)

	h, err := unrollCBF(s, c, b)
	if err != nil {
		return nil, fmt.Errorf("%s: unroll H: %w", sp.Name, err)
	}
	j, err := unrollCBF(s, c, cMapped)
	if err != nil {
		return nil, fmt.Errorf("%s: unroll J: %w", sp.Name, err)
	}
	start := time.Now()
	res, err := check(s, c, h, j, copt)
	if err != nil {
		return nil, fmt.Errorf("%s: cec: %w", sp.Name, err)
	}
	row.Verify = time.Since(start)
	row.Verdict = res.Verdict
	if res.Verdict == cec.Inequivalent {
		return row, fmt.Errorf("%s: H vs J INEQUIVALENT at output %s (flow bug)", sp.Name, res.FailingOutput)
	}
	return row, nil
}

// bestMinPeriod mirrors the harness's choice between the exact and the
// hill-climbing area minimizer, selected through
// retime.ExactMinAreaThreshold exactly as the harness selects them.
func bestMinPeriod(s scope, c *counts, circ *netlist.Circuit) (*retime.Result, *netlist.Circuit, synth.MapReport, error) {
	type cand struct {
		res    *retime.Result
		mapped *netlist.Circuit
		rep    synth.MapReport
	}
	run := func(threshold int) (cand, error) {
		old := retime.ExactMinAreaThreshold
		retime.ExactMinAreaThreshold = threshold
		defer func() { retime.ExactMinAreaThreshold = old }()
		res, err := minPeriod(s, c, circ)
		if err != nil {
			return cand{}, err
		}
		mapped, rep, err := techMap(s, c, res.Circuit)
		if err != nil {
			return cand{}, err
		}
		return cand{res, mapped, rep}, nil
	}
	exact, err := run(retime.ExactMinAreaThreshold)
	if err != nil {
		return nil, nil, synth.MapReport{}, err
	}
	heur, err := run(0)
	if err != nil {
		return nil, nil, synth.MapReport{}, err
	}
	best := exact
	if heur.rep.Delay < best.rep.Delay ||
		(heur.rep.Delay == best.rep.Delay && heur.rep.Area < best.rep.Area) {
		best = heur
	}
	return best.res, best.mapped, best.rep, nil
}

type optReport struct {
	latches, delay int
	area           float64
}

// retimeThenReport mirrors the harness's F, G and E columns.
func retimeThenReport(s scope, c *counts, circ *netlist.Circuit, sopt synth.Options, targetDelay int) (optReport, error) {
	syn, err := optimize(s, c, circ, sopt)
	if err != nil {
		return optReport{}, err
	}
	var res *retime.Result
	if targetDelay == 0 {
		res, err = minPeriod(s, c, syn)
	} else {
		var minP int
		err = s.do("retime.min_possible_period", func(scope) error {
			var err error
			minP, err = retime.MinPossiblePeriod(syn)
			return err
		})
		if err != nil {
			return optReport{}, err
		}
		res, err = minArea(s, c, syn, max(targetDelay, minP))
	}
	if err != nil {
		return optReport{}, err
	}
	_, rep, err := techMap(s, c, res.Circuit)
	if err != nil {
		return optReport{}, err
	}
	return optReport{latches: res.Latches, delay: rep.Delay, area: rep.Area}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The wrappers below are the traced call sites: one span per call into
// a layer, plus the work counters recorded at the same boundary.

func prepare(s scope, c *counts, a *netlist.Circuit) (*core.PrepareResult, error) {
	var p *core.PrepareResult
	err := s.do("core.prepare", func(scope) error {
		var err error
		p, err = core.Prepare(a, core.PrepareOptions{})
		return err
	})
	if err == nil {
		c.prepExposed += len(p.Exposed)
	}
	return p, err
}

func optimize(s scope, c *counts, circ *netlist.Circuit, opt synth.Options) (*netlist.Circuit, error) {
	var out *netlist.Circuit
	err := s.do("synth.optimize", func(scope) error {
		var err error
		out, err = synth.Optimize(circ, opt)
		return err
	})
	if err == nil {
		c.synthGatesIn += circ.NumGates()
		c.synthGatesOut += out.NumGates()
	}
	return out, err
}

func techMap(s scope, c *counts, circ *netlist.Circuit) (*netlist.Circuit, synth.MapReport, error) {
	var out *netlist.Circuit
	var rep synth.MapReport
	err := s.do("synth.map", func(scope) error {
		var err error
		out, rep, err = synth.TechMap(circ)
		return err
	})
	if err == nil {
		c.mapArea += rep.Area
	}
	return out, rep, err
}

func minPeriod(s scope, c *counts, circ *netlist.Circuit) (*retime.Result, error) {
	var res *retime.Result
	err := s.do("retime.min_period", func(scope) error {
		var err error
		res, err = retime.MinPeriod(circ)
		return err
	})
	if err == nil {
		c.retimeLatchesOut += res.Latches
	}
	return res, err
}

func minArea(s scope, c *counts, circ *netlist.Circuit, period int) (*retime.Result, error) {
	var res *retime.Result
	err := s.do("retime.min_area", func(scope) error {
		var err error
		res, err = retime.ConstrainedMinArea(circ, period)
		return err
	})
	if err == nil {
		c.retimeLatchesOut += res.Latches
	}
	return res, err
}

func unrollCBF(s scope, c *counts, circ *netlist.Circuit) (*netlist.Circuit, error) {
	var u *netlist.Circuit
	err := s.do("cbf.unroll", func(scope) error {
		var err error
		u, err = cbf.Unroll(circ)
		return err
	})
	if err == nil {
		c.cbfGates += u.NumGates()
	}
	return u, err
}

func check(s scope, c *counts, c1, c2 *netlist.Circuit, opt cec.Options) (*cec.Result, error) {
	var res *cec.Result
	err := s.do("cec.check", func(scope) error {
		var err error
		res, err = cec.Check(c1, c2, opt)
		return err
	})
	if err == nil {
		c.addCEC(res)
	}
	return res, err
}
