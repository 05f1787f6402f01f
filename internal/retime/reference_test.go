package retime

import (
	"math/rand"
	"reflect"
	"testing"

	"seqver/internal/netlist"
)

// latchCost is the fanout-shared latch count of labeling r: for each
// driving signal (root node), the maximum retimed weight over its fanout
// edges.
func (g *graph) latchCost(r []int) int {
	maxOut := make(map[int]int)
	for _, e := range g.edges {
		w := g.wr(e, r)
		if w > maxOut[e.root] {
			maxOut[e.root] = w
		}
	}
	total := 0
	for _, w := range maxOut {
		total += w
	}
	return total
}

// reduceAreaFullScan is the reference hill-climber: the same visit order
// and acceptance rule as reduceArea, but every try rescans all edges for
// legality and recomputes the whole shared latch count.
func (g *graph) reduceAreaFullScan(r []int, period int) []int {
	r = append([]int(nil), r...)
	cost := g.latchCost(r)
	improved := true
	for improved {
		improved = false
		for v := 2; v < len(g.gateOf); v++ {
			for _, dir := range [2]int{-1, 1} {
				r[v] += dir
				if g.legal(r) {
					if nc := g.latchCost(r); nc < cost {
						if cp := g.clockPeriod(r); cp >= 0 && cp <= period {
							cost = nc
							improved = true
							continue
						}
					}
				}
				r[v] -= dir
			}
		}
	}
	return r
}

// randomSequentialSized builds a random sequential circuit with the
// given gate and latch counts. Latches may feed latches (multi-latch
// edges) and gates draw fanins from a growing pool, so signals fan out
// widely. With enabled set, every latch shares one primary-input enable
// (a single load-enabled class).
func randomSequentialSized(rng *rand.Rand, gates, latches int, enabled bool) *netlist.Circuit {
	c := netlist.New("rnd")
	var pool []int
	for i := 0; i < 4; i++ {
		pool = append(pool, c.AddInput(string(rune('a'+i))))
	}
	enable := netlist.NoEnable
	if enabled {
		enable = c.AddInput("en")
	}
	var ls []int
	for i := 0; i < latches; i++ {
		l := c.AddEnabledLatch("L"+string(rune('A'+i)), 0, enable)
		ls = append(ls, l)
		pool = append(pool, l)
	}
	ops := []netlist.Op{netlist.OpAnd, netlist.OpOr, netlist.OpXor, netlist.OpNand, netlist.OpNot}
	for i := 0; i < gates; i++ {
		op := ops[rng.Intn(len(ops))]
		if op == netlist.OpNot {
			pool = append(pool, c.AddGate("", op, pool[rng.Intn(len(pool))]))
		} else {
			pool = append(pool, c.AddGate("", op, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
		}
	}
	for i, l := range ls {
		data := pool[len(pool)-1-rng.Intn(gates)]
		if i > 0 && rng.Intn(4) == 0 {
			data = ls[rng.Intn(i)] // a latch chain
		}
		c.SetLatchData(l, data)
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		c.AddOutput("o"+string(rune('0'+k)), pool[len(pool)-1-rng.Intn(gates)])
	}
	if err := c.Check(); err != nil {
		panic(err)
	}
	return c
}

// differentialCircuit returns the trial's circuit: the small
// randomSequential shapes, larger regular ones, and larger single-class
// load-enabled ones, in turn.
func differentialCircuit(rng *rand.Rand, trial int) *netlist.Circuit {
	switch trial % 3 {
	case 0:
		return randomSequential(rng)
	case 1:
		return randomSequentialSized(rng, 10+rng.Intn(40), 2+rng.Intn(8), false)
	default:
		return randomSequentialSized(rng, 10+rng.Intn(40), 2+rng.Intn(8), true)
	}
}

func TestReduceAreaMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	compared, moved := 0, 0
	for trial := 0; trial < 600; trial++ {
		g, err := buildGraph(differentialCircuit(rng, trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p0 := g.clockPeriod(make([]int, len(g.gateOf)))
		if p0 <= 0 {
			continue
		}
		pmin := p0
		for p := p0 - 1; p >= 1 && g.feas(p) != nil; p-- {
			pmin = p
		}
		for _, period := range []int{p0, pmin} {
			r0 := g.feas(period)
			if r0 == nil {
				t.Fatalf("trial %d: period %d infeasible", trial, period)
			}
			got := g.reduceArea(r0, period)
			want := g.reduceAreaFullScan(r0, period)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d period %d: lags %v, full scan %v", trial, period, got, want)
			}
			compared++
			if !reflect.DeepEqual(got, r0) {
				moved++
			}
		}
	}
	t.Logf("%d labelings compared, %d improved", compared, moved)
	if compared < 1000 || moved < 100 {
		t.Fatalf("weak coverage: %d labelings compared, %d improved", compared, moved)
	}
}

func TestReduceAreaIllegalInputUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		g, err := buildGraph(differentialCircuit(rng, trial))
		if err != nil {
			t.Fatal(err)
		}
		p0 := g.clockPeriod(make([]int, len(g.gateOf)))
		r := g.feas(p0)
		if r == nil {
			t.Fatalf("trial %d: original period infeasible", trial)
		}
		// Raise a gate's lag past an outgoing edge's weight.
		for _, e := range g.edges {
			if e.u >= 2 && e.u != e.v {
				r[e.u] += g.wr(e, r) + 1
				break
			}
		}
		if g.legal(r) {
			continue
		}
		in := append([]int(nil), r...)
		if got := g.reduceArea(r, p0); !reflect.DeepEqual(got, in) {
			t.Fatalf("trial %d: illegal labeling %v came back as %v", trial, in, got)
		}
		if !reflect.DeepEqual(r, in) {
			t.Fatalf("trial %d: reduceArea modified its input", trial)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d illegal labelings checked", checked)
	}
}
