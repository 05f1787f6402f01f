package core_test

import (
	"context"
	"sort"
	"testing"

	"seqver/internal/aig"
	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// refJointAIG is the joint miter as it was built from two unrolled
// netlists before the unrollers emitted DAGs: inputs unioned by name in
// c1-then-c2 order, each circuit added in TopoOrder, outputs paired by
// sorted name. It is the oracle the direct miter must equal node for
// node.
func refJointAIG(t *testing.T, c1, c2 *netlist.Circuit) (*aig.AIG, []string) {
	t.Helper()
	seen := map[string]int{}
	var union []string
	for _, c := range []*netlist.Circuit{c1, c2} {
		for _, n := range c.InputNames() {
			if _, ok := seen[n]; !ok {
				seen[n] = len(union)
				union = append(union, n)
			}
		}
	}
	a := aig.New(union)
	build := func(c *netlist.Circuit) map[string]aig.Lit {
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		lit := make([]aig.Lit, len(c.Nodes))
		for _, id := range c.Inputs {
			lit[id] = a.PI(seen[c.Nodes[id].Name])
		}
		for _, id := range order {
			n := c.Nodes[id]
			if n.Kind != netlist.KindGate {
				continue
			}
			fins := make([]aig.Lit, len(n.Fanins))
			for j, f := range n.Fanins {
				fins[j] = lit[f]
			}
			lit[id] = a.Gate(n, fins)
		}
		out := map[string]aig.Lit{}
		for _, o := range c.Outputs {
			out[o.Name] = lit[o.Node]
		}
		return out
	}
	m1, m2 := build(c1), build(c2)
	names := c1.OutputNames()
	sort.Strings(names)
	for _, n := range names {
		a.AddPO("l$"+n, m1[n])
		a.AddPO("r$"+n, m2[n])
	}
	return a, names
}

// sameMiter fails unless the direct miter equals the reference AIG in
// input names and order, every node's fanins, and output edges and
// names.
func sameMiter(t *testing.T, what string, m *cec.Miter, ref *aig.AIG, names []string) {
	t.Helper()
	a := m.AIG
	if a.NumPIs() != ref.NumPIs() || a.NumNodes() != ref.NumNodes() || a.NumPOs() != ref.NumPOs() {
		t.Fatalf("%s: %d PIs/%d nodes/%d POs, reference %d/%d/%d", what,
			a.NumPIs(), a.NumNodes(), a.NumPOs(), ref.NumPIs(), ref.NumNodes(), ref.NumPOs())
	}
	for i := 0; i < a.NumPIs(); i++ {
		if a.PIName(i) != ref.PIName(i) {
			t.Fatalf("%s: PI %d is %q, reference %q", what, i, a.PIName(i), ref.PIName(i))
		}
	}
	for n := uint32(a.NumPIs() + 1); n < uint32(a.NumNodes()); n++ {
		f0, f1 := a.Fanins(n)
		r0, r1 := ref.Fanins(n)
		if f0 != r0 || f1 != r1 {
			t.Fatalf("%s: node %d fanins (%d,%d), reference (%d,%d)", what, n, f0, f1, r0, r1)
		}
	}
	for i := 0; i < a.NumPOs(); i++ {
		if a.PO(i) != ref.PO(i) || a.POName(i) != ref.POName(i) {
			t.Fatalf("%s: PO %d %q=%d, reference %q=%d", what, i, a.POName(i), a.PO(i), ref.POName(i), ref.PO(i))
		}
	}
	if len(m.Names) != len(names) {
		t.Fatalf("%s: %d output names, reference %d", what, len(m.Names), len(names))
	}
	for i, n := range names {
		if m.Names[i] != n || m.POs1[i] != a.PO(2*i) || m.POs2[i] != a.PO(2*i+1) {
			t.Fatalf("%s: output %d is %q (%d,%d), reference %q", what, i, m.Names[i], m.POs1[i], m.POs2[i], n)
		}
	}
}

// table2Pair prepares a Table 2 shape and its synth.Optimize revision
// the way Verify does.
func table2Pair(t *testing.T, sp bench.IndustrialSpec) (*netlist.Circuit, *netlist.Circuit) {
	t.Helper()
	a := bench.GenerateIndustrial(sp)
	rev, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.MatchExposure(rev, p.Exposed)
	if err != nil {
		t.Fatal(err)
	}
	return p.Circuit, b
}

// TestUnrolledMiterMatchesNetlistPath requires the miter that
// UnrollAcyclicCtx builds straight from the unrollers to equal the one
// built from the unrolled netlists (edbf.Unroll, cbf.Unroll), node for
// node, on every Table 2 pair with and without Rewrite and on three
// Table 1 shapes against their synthesized, retimed and mapped version.
func TestUnrolledMiterMatchesNetlistPath(t *testing.T) {
	ctx := context.Background()
	check := func(what string, c1, c2 *netlist.Circuit, rewrite bool, unroll func(c *netlist.Circuit) *netlist.Circuit) {
		u, err := core.UnrollAcyclicCtx(ctx, c1, c2, rewrite)
		if err != nil {
			t.Fatal(err)
		}
		u1, u2 := unroll(c1), unroll(c2)
		ref, names := refJointAIG(t, u1, u2)
		sameMiter(t, what, u.Miter, ref, names)
		if want := [2]int{u1.NumGates(), u2.NumGates()}; u.UnrolledGates != want {
			t.Fatalf("%s: UnrolledGates %v, netlist path %v", what, u.UnrolledGates, want)
		}
	}
	for _, sp := range bench.Table2Specs {
		g, r := table2Pair(t, sp)
		for _, rewrite := range []bool{false, true} {
			cx := edbf.NewCtx()
			cx.Rewrite = rewrite
			check(sp.Name, g, r, rewrite, func(c *netlist.Circuit) *netlist.Circuit {
				u, err := cx.Unroll(c)
				if err != nil {
					t.Fatal(err)
				}
				return u
			})
		}
	}
	for _, sp := range bench.Table1Specs {
		if sp.Name != "s1423" && sp.Name != "s3384" && sp.Name != "s9234" {
			continue
		}
		p, err := core.Prepare(bench.Generate(sp), core.PrepareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		syn, err := synth.Optimize(p.Circuit, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := retime.MinPeriod(syn)
		if err != nil {
			t.Fatal(err)
		}
		mapped, _, err := synth.TechMap(rt.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		check(sp.Name, p.Circuit, mapped, false, func(c *netlist.Circuit) *netlist.Circuit {
			u, err := cbf.Unroll(c)
			if err != nil {
				t.Fatal(err)
			}
			return u
		})
	}
}

// TestUnrolledMiterAllocs guards the point of building the miter
// straight from the unrollers: on the ex2 EDBF pair it must take at
// most half the allocations of unrolling to netlists and building the
// miter from those.
func TestUnrolledMiterAllocs(t *testing.T) {
	var sp bench.IndustrialSpec
	for _, s := range bench.Table2Specs {
		if s.Name == "ex2" {
			sp = s
		}
	}
	g, r := table2Pair(t, sp)
	direct := testing.AllocsPerRun(3, func() {
		if _, err := core.UnrollAcyclicCtx(context.Background(), g, r, false); err != nil {
			t.Fatal(err)
		}
	})
	viaNetlist := testing.AllocsPerRun(3, func() {
		cx := edbf.NewCtx()
		var ds [2]*netlist.DAG
		for i, c := range []*netlist.Circuit{g, r} {
			u, err := cx.Unroll(c)
			if err != nil {
				t.Fatal(err)
			}
			if ds[i], err = netlist.DAGOf(u); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cec.BuildMiter(context.Background(), ds[0], ds[1]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ex2 miter build: %.0f allocs direct, %.0f via netlists", direct, viaNetlist)
	if direct > viaNetlist/2 {
		t.Errorf("direct miter build takes %.0f allocs, more than half of the netlist path's %.0f", direct, viaNetlist)
	}
}
