package netlist

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// DAG is a combinational circuit recorded node by node as it is built:
// the form in which the CBF and EDBF unrollers emit their result and the
// equivalence checker's miter builder consumes it. Nodes are kept in
// creation order and every fanin of a node precedes it. A gate carries
// no name of its own, only the source gate it copies and the key (delay
// or event id) it was copied at; Circuit derives the names on demand.
type DAG struct {
	Name    string
	Nodes   []DAGNode
	Inputs  []DAGInput // primary inputs; in rank order once SortInputs ran
	Outputs []Output   // Output.Node indexes Nodes
	fanins  []int32    // every gate's fanins, back to back
	sep     byte       // gate names are Src.Name + sep + Key
	gates   int
}

// DAGNode is one node of a DAG. Src is the source gate it copies; a
// primary input has an input as Src, or the latch whose unloadable
// value it stands for.
type DAGNode struct {
	Src    *Node
	Key    int32
	lo, hi int32 // fanins[lo:hi]
}

// DAGInput names a primary input of a DAG.
type DAGInput struct {
	Node int32
	Name string
	rank uint64
}

// NewDAG returns an empty DAG whose gates Circuit names
// "<source name><sep><key>". sizeHint presizes the node table.
func NewDAG(name string, sep byte, sizeHint int) *DAG {
	return &DAG{Name: name, sep: sep, Nodes: make([]DAGNode, 0, sizeHint),
		fanins: make([]int32, 0, 2*sizeHint)}
}

// AddInput appends a primary input copied from src at key, named name,
// and returns its node index. SortInputs orders inputs by rank; inputs
// of equal rank keep their creation order.
func (d *DAG) AddInput(src *Node, key int32, name string, rank uint64) int32 {
	id := int32(len(d.Nodes))
	d.Nodes = append(d.Nodes, DAGNode{Src: src, Key: key})
	d.Inputs = append(d.Inputs, DAGInput{Node: id, Name: name, rank: rank})
	return id
}

// AddGate appends a copy of gate src at key over the given fanin nodes
// (read, not kept) and returns its node index.
func (d *DAG) AddGate(src *Node, key int32, fanins []int32) int32 {
	lo := int32(len(d.fanins))
	d.fanins = append(d.fanins, fanins...)
	d.Nodes = append(d.Nodes, DAGNode{Src: src, Key: key, lo: lo, hi: int32(len(d.fanins))})
	d.gates++
	return int32(len(d.Nodes) - 1)
}

// AddOutput declares node as a primary output under name.
func (d *DAG) AddOutput(name string, node int32) {
	d.Outputs = append(d.Outputs, Output{Name: name, Node: int(node)})
}

// SortInputs puts the inputs in rank order, and inputs of equal rank in
// creation order.
func (d *DAG) SortInputs() {
	slices.SortFunc(d.Inputs, func(x, y DAGInput) int {
		if c := cmp.Compare(x.rank, y.rank); c != 0 {
			return c
		}
		return cmp.Compare(x.Node, y.Node)
	})
}

// Fanins returns node i's fanin nodes (empty for an input).
func (d *DAG) Fanins(i int) []int32 {
	n := &d.Nodes[i]
	return d.fanins[n.lo:n.hi]
}

// IsGate reports whether node i is a gate rather than a primary input.
func (d *DAG) IsGate(i int) bool { return d.Nodes[i].Src.Kind == KindGate }

// NumGates returns the number of gates.
func (d *DAG) NumGates() int { return d.gates }

// Circuit materializes the DAG as a named combinational circuit: one
// node per DAG node in the same order, inputs in Inputs order, and each
// named gate called "<source name><sep><key>".
func (d *DAG) Circuit() (*Circuit, error) {
	c := New(d.Name)
	c.Nodes = make([]*Node, 0, len(d.Nodes))
	inName := make([]string, len(d.Nodes))
	for _, in := range d.Inputs {
		inName[in.Node] = in.Name
	}
	var fins []int
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Src.Kind != KindGate {
			c.AddInput(inName[i])
			continue
		}
		fins = fins[:0]
		for _, f := range d.fanins[n.lo:n.hi] {
			fins = append(fins, int(f))
		}
		name := ""
		if n.Src.Name != "" {
			name = n.Src.Name + string(d.sep) + strconv.Itoa(int(n.Key))
		}
		if n.Src.Op == OpTable {
			c.AddTable(name, fins, n.Src.Cover)
		} else {
			c.AddGate(name, n.Src.Op, fins...)
		}
	}
	c.Inputs = c.Inputs[:0]
	for _, in := range d.Inputs {
		c.Inputs = append(c.Inputs, int(in.Node))
	}
	for _, o := range d.Outputs {
		c.AddOutput(o.Name, o.Node)
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// DAGOf records a combinational circuit as a DAG for replay into an
// AIG: its inputs in declaration order, then its gates in TopoOrder,
// every key 0.
func DAGOf(c *Circuit) (*DAG, error) {
	if len(c.Latches) > 0 {
		return nil, fmt.Errorf("netlist: circuit %q has %d latches", c.Name, len(c.Latches))
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	d := NewDAG(c.Name, 0, len(c.Nodes))
	idx := make([]int32, len(c.Nodes))
	for i, id := range c.Inputs {
		idx[id] = d.AddInput(c.Nodes[id], 0, c.Nodes[id].Name, uint64(i))
	}
	var fins []int32
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != KindGate {
			continue
		}
		fins = fins[:0]
		for _, f := range n.Fanins {
			fins = append(fins, idx[f])
		}
		idx[id] = d.AddGate(n, 0, fins)
	}
	for _, o := range c.Outputs {
		d.AddOutput(o.Name, idx[o.Node])
	}
	return d, nil
}
