package cec

import (
	"context"
	"fmt"
	"slices"

	"seqver/internal/aig"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Miter is the joint miter AIG of a combinational comparison: both
// sides built into one structurally hashed AIG over the union of their
// input names, with the two sides' edges paired per output name. It is
// read-only once built; hashing it and checking it may share it.
type Miter struct {
	AIG   *aig.AIG // inputs named by AIG.PINames
	Names []string // output names, sorted
	// POs1[i] and POs2[i] are the two sides' edges for Names[i]; the
	// AIG also carries them as outputs "l$"+Names[i] and "r$"+Names[i].
	POs1, POs2 []aig.Lit
}

// Hash returns the miter's content address: the canonical structural
// hash of its AIG (see MiterHash).
func (m *Miter) Hash() string { return m.AIG.StructuralHash() }

// BuildMiter builds the joint miter of two combinational DAGs under an
// "aig.build" span recording the AIG's AND and input counts. Inputs are
// aligned by name, in d1's input order followed by the names only d2
// has; each DAG is replayed in creation order. The DAGs must have
// identical output name sets.
func BuildMiter(ctx context.Context, d1, d2 *netlist.DAG) (*Miter, error) {
	if err := sameOutputNames(d1.Outputs, d2.Outputs); err != nil {
		return nil, err
	}
	_, sp := obs.Start(ctx, "aig.build")
	defer sp.End()
	pi := make(map[string]int, len(d1.Inputs)+len(d2.Inputs))
	var union []string
	for _, d := range []*netlist.DAG{d1, d2} {
		for _, in := range d.Inputs {
			if _, ok := pi[in.Name]; !ok {
				pi[in.Name] = len(union)
				union = append(union, in.Name)
			}
		}
	}
	a := aig.New(union)
	o1 := replay(a, d1, pi)
	o2 := replay(a, d2, pi)
	m := &Miter{AIG: a, Names: make([]string, len(d1.Outputs))}
	for i, o := range d1.Outputs {
		m.Names[i] = o.Name
	}
	slices.Sort(m.Names)
	m.POs1 = make([]aig.Lit, len(m.Names))
	m.POs2 = make([]aig.Lit, len(m.Names))
	for i, n := range m.Names {
		m.POs1[i], m.POs2[i] = o1[n], o2[n]
		a.AddPO("l$"+n, o1[n])
		a.AddPO("r$"+n, o2[n])
	}
	if sp != nil {
		sp.Gauge("aig.ands", int64(a.NumAnds()))
		sp.Gauge("aig.inputs", int64(a.NumPIs()))
	}
	return m, nil
}

// replay adds d's gates to a in creation order, d's inputs taking the
// AIG inputs pi names, and returns each output name's edge.
func replay(a *aig.AIG, d *netlist.DAG, pi map[string]int) map[string]aig.Lit {
	lit := make([]aig.Lit, len(d.Nodes))
	for _, in := range d.Inputs {
		lit[in.Node] = a.PI(pi[in.Name])
	}
	var in []aig.Lit
	for i := range d.Nodes {
		if !d.IsGate(i) {
			continue
		}
		in = in[:0]
		for _, f := range d.Fanins(i) {
			in = append(in, lit[f])
		}
		lit[i] = a.Gate(d.Nodes[i].Src, in)
	}
	out := make(map[string]aig.Lit, len(d.Outputs))
	for _, o := range d.Outputs {
		out[o.Name] = lit[o.Node]
	}
	return out
}

// jointAIG is BuildMiter for two combinational netlists, each replayed
// in topological order.
func jointAIG(ctx context.Context, c1, c2 *netlist.Circuit) (*Miter, error) {
	if len(c1.Latches) > 0 || len(c2.Latches) > 0 {
		return nil, fmt.Errorf("cec: circuits must be combinational (unroll first)")
	}
	d1, err := netlist.DAGOf(c1)
	if err != nil {
		return nil, err
	}
	d2, err := netlist.DAGOf(c2)
	if err != nil {
		return nil, err
	}
	return BuildMiter(ctx, d1, d2)
}

func sameOutputNames(o1, o2 []netlist.Output) error {
	if len(o1) != len(o2) {
		return fmt.Errorf("cec: output counts differ: %d vs %d", len(o1), len(o2))
	}
	s1, s2 := make([]string, len(o1)), make([]string, len(o2))
	for i := range o1 {
		s1[i], s2[i] = o1[i].Name, o2[i].Name
	}
	slices.Sort(s1)
	slices.Sort(s2)
	for i := range s1 {
		if s1[i] != s2[i] {
			return fmt.Errorf("cec: output sets differ at %q vs %q", s1[i], s2[i])
		}
	}
	return nil
}
