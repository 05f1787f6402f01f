// Package retime implements Leiserson–Saxe retiming for single-phase
// edge-triggered circuits under the unit (constant) delay model, the same
// model the paper's experimental setup used via the Minaret tool
// (Section 7.2): minimum-period retiming by binary search over FEAS
// feasibility checks, and constrained minimum-area retiming that reduces
// the (fanout-shared) latch count subject to a period bound.
//
// Load-enabled latches are supported in the single-class case (all
// latches share one enable signal, which must be a primary input or a
// constant), per the Legl et al. reduction the paper cites [9]: a move
// merges only latches of the same class, which for a single class is
// every move. Multi-class circuits must be split or exposed first — the
// paper itself could not retime multi-class industrial circuits
// (Section 8).
package retime

import (
	"fmt"

	"seqver/internal/netlist"
)

// graph is the retiming graph: vertex 0 is the source (primary inputs
// and constants), vertex 1 the sink (primary outputs); both are pinned at
// lag 0, standing in for the usual host vertex without creating
// artificial zero-weight cycles through it. Vertices 2..n are gates with
// unit delay (constants cost 0).
type graph struct {
	c       *netlist.Circuit
	vertOf  []int // circuit node id -> vertex (gates only; others source)
	gateOf  []int // vertex -> circuit node id (0 for source/sink)
	delay   []int // vertex delay
	edges   []edge
	out, in [][]int      // vertex -> edge indices
	frozen  map[int]bool // immovable latches (other classes, latch cycles)
	// moveEnable is the enable node of the class being retimed
	// (NoEnable for the regular class).
	moveEnable int
}

const (
	srcVertex  = 0
	sinkVertex = 1
)

// moveNone is a sentinel enable value matching no latch class: every
// latch is frozen. Used for pure measurement (Period) on multi-class
// circuits.
const moveNone = -2

type edge struct {
	u, v, w int // from u to v with w latches
	root    int // circuit node driving the latch chain (for sharing)
}

// frozenLatches finds latches on pure-latch cycles (x' = x chains closed
// on themselves, which synthesis can produce from hold-only registers).
// Such latches cannot be moved by retiming; they are treated as fixed
// leaves of the retiming graph and recreated verbatim on rebuild.
func frozenLatches(c *netlist.Circuit, base map[int]bool) map[int]bool {
	frozen := make(map[int]bool, len(base))
	for id := range base {
		frozen[id] = true
	}
	state := make(map[int]uint8) // 1 = on walk, 2 = done
	for _, start := range c.Latches {
		if state[start] != 0 || frozen[start] {
			continue
		}
		var path []int
		id := start
		for c.Nodes[id].Kind == netlist.KindLatch && !frozen[id] && state[id] == 0 {
			state[id] = 1
			path = append(path, id)
			id = c.Nodes[id].Data()
		}
		if c.Nodes[id].Kind == netlist.KindLatch && state[id] == 1 {
			// Found a cycle: freeze everything from id onwards in path.
			inCycle := false
			for _, p := range path {
				if p == id {
					inCycle = true
				}
				if inCycle {
					frozen[p] = true
				}
			}
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	return frozen
}

// rootThroughLatches walks back through latch chains from node id,
// returning the driving non-latch node (or frozen latch) and the latch
// count crossed.
func rootThroughLatchesFrom(c *netlist.Circuit, id int, frozen map[int]bool) (int, int) {
	w := 0
	for c.Nodes[id].Kind == netlist.KindLatch && !frozen[id] {
		w++
		id = c.Nodes[id].Data()
	}
	return id, w
}

// classInfo validates the single-class restriction and returns the shared
// enable node in the ORIGINAL circuit (NoEnable for all-regular).
func classInfo(c *netlist.Circuit) (int, error) {
	enable := netlist.NoEnable
	first := true
	for _, id := range c.Latches {
		e := c.Nodes[id].Enable
		if first {
			enable, first = e, false
			continue
		}
		if e != enable {
			return 0, fmt.Errorf("retime: circuit has multiple latch classes; retime each class separately or expose (Legl et al. reduction not implemented across classes)")
		}
	}
	if err := validateEnableSource(c, enable); err != nil {
		return 0, err
	}
	return enable, nil
}

// validateEnableSource checks that a moving class's enable is a primary
// input or a constant, so retimed latches can be reattached to it.
func validateEnableSource(c *netlist.Circuit, enable int) error {
	if enable == netlist.NoEnable {
		return nil
	}
	switch c.Nodes[enable].Kind {
	case netlist.KindInput:
	case netlist.KindGate:
		if c.Nodes[enable].Op != netlist.OpConst0 && c.Nodes[enable].Op != netlist.OpConst1 {
			return fmt.Errorf("retime: latch enable must be a primary input or constant, not gate %q", c.Nodes[enable].Name)
		}
	default:
		return fmt.Errorf("retime: unsupported enable source")
	}
	return nil
}

// buildGraph builds the retiming graph for a single-class circuit.
func buildGraph(c *netlist.Circuit) (*graph, error) {
	enable, err := classInfo(c)
	if err != nil {
		return nil, err
	}
	return buildGraphClass(c, enable)
}

// buildGraphClass builds the retiming graph in which only latches of the
// given enable class move; all other latches are frozen leaves (the
// Legl-style per-class reduction).
func buildGraphClass(c *netlist.Circuit, moveEnable int) (*graph, error) {
	if moveEnable != moveNone {
		if err := validateEnableSource(c, moveEnable); err != nil {
			return nil, err
		}
	}
	g := &graph{c: c, moveEnable: moveEnable}
	g.vertOf = make([]int, len(c.Nodes))
	g.gateOf = []int{0, 0}
	g.delay = []int{0, 0}
	for i := range g.vertOf {
		g.vertOf[i] = srcVertex // inputs and latch leaves resolve to roots
	}
	for _, n := range c.Nodes {
		if n.Kind == netlist.KindGate {
			g.vertOf[n.ID] = len(g.gateOf)
			g.gateOf = append(g.gateOf, n.ID)
			d := 1
			if n.Op == netlist.OpConst0 || n.Op == netlist.OpConst1 {
				d = 0
			}
			g.delay = append(g.delay, d)
		}
	}
	addEdge := func(u, v, w, root int) {
		g.edges = append(g.edges, edge{u, v, w, root})
	}
	base := make(map[int]bool)
	for _, id := range c.Latches {
		if c.Nodes[id].Enable != moveEnable {
			base[id] = true
		}
	}
	g.frozen = frozenLatches(c, base)
	for _, n := range c.Nodes {
		if n.Kind != netlist.KindGate {
			continue
		}
		v := g.vertOf[n.ID]
		for _, f := range n.Fanins {
			root, w := rootThroughLatchesFrom(c, f, g.frozen)
			addEdge(g.vertOf[root], v, w, root)
		}
	}
	for _, o := range c.Outputs {
		root, w := rootThroughLatchesFrom(c, o.Node, g.frozen)
		addEdge(g.vertOf[root], sinkVertex, w, root)
	}
	// A frozen latch samples its data at fixed lag 0, like a primary
	// output; its output is read at fixed lag 0, like a primary input
	// (covered by vertOf defaulting to the source vertex).
	for id := range g.frozen {
		root, w := rootThroughLatchesFrom(c, c.Nodes[id].Data(), g.frozen)
		addEdge(g.vertOf[root], sinkVertex, w, root)
	}
	// Latch enables are primary inputs or constants (enforced by
	// classInfo), so they live at the pinned source vertex and need no
	// extra constraint.
	nv := len(g.gateOf)
	g.out = make([][]int, nv)
	g.in = make([][]int, nv)
	for i, e := range g.edges {
		g.out[e.u] = append(g.out[e.u], i)
		g.in[e.v] = append(g.in[e.v], i)
	}
	return g, nil
}

// wr returns the retimed weight of edge e under labeling r.
func (g *graph) wr(e edge, r []int) int { return e.w + r[e.v] - r[e.u] }

// legal reports whether every retimed edge weight is nonnegative.
func (g *graph) legal(r []int) bool {
	for _, e := range g.edges {
		if g.wr(e, r) < 0 {
			return false
		}
	}
	return true
}

// clockPeriod computes the maximum zero-weight combinational path delay
// under labeling r, or -1 if the zero-weight subgraph has a cycle
// (illegal configuration).
func (g *graph) clockPeriod(r []int) int {
	delta, ok := g.arrival(r)
	if !ok {
		return -1
	}
	maxD := 0
	for _, d := range delta {
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// arrival computes per-vertex zero-weight arrival times Δ(v); the caller
// must ensure the configuration is legal (no zero-weight cycles).
func (g *graph) arrival(r []int) ([]int, bool) {
	nv := len(g.gateOf)
	indeg := make([]int, nv)
	for _, e := range g.edges {
		if g.wr(e, r) == 0 {
			indeg[e.v]++
		}
	}
	delta := make([]int, nv)
	order := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		delta[v] = g.delay[v]
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if g.wr(e, r) != 0 {
				continue
			}
			if d := delta[v] + g.delay[e.v]; d > delta[e.v] {
				delta[e.v] = d
			}
			indeg[e.v]--
			if indeg[e.v] == 0 {
				order = append(order, e.v)
			}
		}
	}
	return delta, len(order) == nv
}

// feas runs the FEAS algorithm: it returns a legal labeling achieving
// clock period <= c, or nil if none exists.
func (g *graph) feas(c int) []int {
	nv := len(g.gateOf)
	r := make([]int, nv)
	for iter := 0; iter < nv; iter++ {
		delta, ok := g.arrival(r)
		if !ok {
			return nil
		}
		changed := false
		for v := 2; v < nv; v++ { // source and sink stay at lag 0
			if delta[v] > c {
				r[v]++
				changed = true
			}
		}
		if !changed {
			if g.legal(r) && g.clockPeriod(r) <= c {
				return r
			}
			return nil
		}
	}
	// One final check after |V| iterations.
	if delta, ok := g.arrival(r); ok {
		maxD := 0
		for _, d := range delta {
			if d > maxD {
				maxD = d
			}
		}
		if maxD <= c && g.legal(r) {
			return r
		}
	}
	return nil
}

// Result carries a retiming outcome.
type Result struct {
	Circuit *netlist.Circuit
	Period  int // achieved clock period (unit delays)
	Latches int // latch count of the rebuilt circuit
	Moves   int // number of vertices with nonzero lag
}

// MinPeriod retimes the circuit to its minimum achievable clock period
// under the unit delay model.
func MinPeriod(c *netlist.Circuit) (*Result, error) {
	g, err := buildGraph(c)
	if err != nil {
		return nil, err
	}
	lo, hi := 1, g.clockPeriod(make([]int, len(g.gateOf)))
	if hi < 0 {
		return nil, fmt.Errorf("retime: circuit has a combinational cycle")
	}
	if hi == 0 {
		hi = 1
	}
	var best []int
	bestC := hi
	for lo <= hi {
		mid := (lo + hi) / 2
		if r := g.feas(mid); r != nil {
			best, bestC = r, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		best = make([]int, len(g.gateOf))
		bestC = g.clockPeriod(best)
	}
	// Trim gratuitous latches at the found period before rebuilding:
	// exactly (LP) when the graph is small enough, greedily otherwise.
	best = g.minimizeArea(best, bestC)
	return g.rebuild(best, bestC)
}

// ConstrainedMinArea retimes the circuit to minimize the latch count
// subject to an upper bound on the clock period (Section 7.2's second
// mode: minimum-area retiming constrained to the delay obtained by
// combinational optimization).
func ConstrainedMinArea(c *netlist.Circuit, period int) (*Result, error) {
	g, err := buildGraph(c)
	if err != nil {
		return nil, err
	}
	r := g.feas(period)
	if r == nil {
		return nil, fmt.Errorf("retime: period %d infeasible", period)
	}
	r = g.minimizeArea(r, period)
	return g.rebuild(r, period)
}

// minimizeArea lowers the shared latch count of a feasible labeling at
// the given period. The exact Leiserson-Saxe LP (minarea.go) answers
// when it applies; when it declines (graph over ExactMinAreaThreshold,
// or LP infeasible) the hill-climber improves r instead.
func (g *graph) minimizeArea(r []int, period int) []int {
	if exact := g.exactMinArea(period); exact != nil {
		return exact
	}
	return g.reduceArea(r, period)
}

// reduceArea hill-climbs the labeling: single-vertex lag changes that
// keep legality and the period bound while lowering the shared latch
// count are applied until fixpoint, visiting v = 2..n and trying -1
// before +1. Moving v changes only the retimed weights of the edges in
// g.in[v] and g.out[v], so legality and the cost change are computed
// from those edges alone. An illegal input labeling is returned
// unchanged.
func (g *graph) reduceArea(r []int, period int) []int {
	r = append([]int(nil), r...)
	if !g.legal(r) {
		return r
	}
	ch := newChains(g, r)
	improved := true
	for improved {
		improved = false
		for v := 2; v < len(g.gateOf); v++ {
			for _, dir := range [2]int{-1, 1} {
				r[v] += dir
				if g.legalAround(v, r) && ch.delta(v, r) < 0 {
					if cp := g.clockPeriod(r); cp >= 0 && cp <= period {
						ch.commit()
						improved = true
						continue
					}
				}
				r[v] -= dir
			}
		}
	}
	return r
}

// legalAround reports whether every edge incident to v has a
// nonnegative retimed weight under r.
func (g *graph) legalAround(v int, r []int) bool {
	for _, edges := range [2][]int{g.in[v], g.out[v]} {
		for _, ei := range edges {
			if g.wr(g.edges[ei], r) < 0 {
				return false
			}
		}
	}
	return true
}

// chains keeps the shared latch chain length of every root (the
// circuit node driving it, used as a dense index): the maximum retimed
// weight over the root's fanout edges, Minaret's sharing model. The
// shared latch count is their sum.
type chains struct {
	g      *graph
	byRoot [][]int32 // root -> its fanout edges
	length []int     // root -> chain length under the committed labeling
	seen   []int     // root -> the delta call that last touched it
	call   int
	// The roots the last delta call touched, with their new lengths.
	roots, lengths []int
}

func newChains(g *graph, r []int) *chains {
	n := len(g.c.Nodes)
	ch := &chains{g: g, byRoot: make([][]int32, n), length: make([]int, n), seen: make([]int, n)}
	for i, e := range g.edges {
		ch.byRoot[e.root] = append(ch.byRoot[e.root], int32(i))
		ch.length[e.root] = max(ch.length[e.root], g.wr(e, r))
	}
	return ch
}

// delta returns the change in shared latch count when r differs from
// the committed labeling at vertex v only, recomputing just the roots
// of the edges incident to v.
func (ch *chains) delta(v int, r []int) int {
	ch.call++
	ch.roots, ch.lengths = ch.roots[:0], ch.lengths[:0]
	d := 0
	for _, edges := range [2][]int{ch.g.in[v], ch.g.out[v]} {
		for _, ei := range edges {
			root := ch.g.edges[ei].root
			if ch.seen[root] == ch.call {
				continue
			}
			ch.seen[root] = ch.call
			length := 0
			for _, fi := range ch.byRoot[root] {
				length = max(length, ch.g.wr(ch.g.edges[fi], r))
			}
			ch.roots = append(ch.roots, root)
			ch.lengths = append(ch.lengths, length)
			d += length - ch.length[root]
		}
	}
	return d
}

// commit makes the labeling of the last delta call the committed one.
func (ch *chains) commit() {
	for i, root := range ch.roots {
		ch.length[root] = ch.lengths[i]
	}
}

// rebuild materializes the retimed circuit from labeling r.
func (g *graph) rebuild(r []int, period int) (*Result, error) {
	c := g.c
	enable := g.moveEnable
	out := netlist.New(c.Name + "_rt")
	newID := make([]int, len(c.Nodes))
	for i := range newID {
		newID[i] = -1
	}
	// Primary inputs and constants keep their identity.
	for _, id := range c.Inputs {
		newID[id] = out.AddInput(c.Nodes[id].Name)
	}
	// Pass 1: placeholder gates (fanins patched in pass 2).
	for _, n := range c.Nodes {
		if n.Kind != netlist.KindGate {
			continue
		}
		cp := &netlist.Node{
			Name:   n.Name,
			Kind:   netlist.KindGate,
			Op:     n.Op,
			Fanins: make([]int, len(n.Fanins)),
			Cover:  append([]netlist.Cube(nil), n.Cover...),
			Enable: netlist.NoEnable,
		}
		newID[n.ID] = addRaw(out, cp)
	}
	newEnable := netlist.NoEnable
	if enable != netlist.NoEnable {
		newEnable = newID[enable]
		if newEnable < 0 {
			return nil, fmt.Errorf("retime: enable signal lost during rebuild")
		}
	}
	// Frozen latches (pure-latch cycles) are recreated verbatim; their
	// data is wired in the final pass.
	for _, id := range c.Latches {
		if !g.frozen[id] {
			continue
		}
		n := c.Nodes[id]
		en := netlist.NoEnable
		if n.Enable != netlist.NoEnable {
			en = newID[n.Enable]
		}
		newID[id] = out.AddEnabledLatch(n.Name, 0, en)
	}
	// Latch chains, shared per root: chains[root][k] = node after k+1
	// latches from root.
	chains := make(map[int][]int)
	latchCount := 0
	chain := func(rootOld int, w int) int {
		src := newID[rootOld]
		if w == 0 {
			return src
		}
		ch := chains[rootOld]
		for len(ch) < w {
			prev := src
			if len(ch) > 0 {
				prev = ch[len(ch)-1]
			}
			name := fmt.Sprintf("rt_%s_l%d", nodeLabel(c, rootOld), len(ch)+1)
			// Repeated retiming passes can collide with chain names
			// from earlier rebuilds; uniquify.
			for suffix := 'b'; out.Lookup(name) >= 0; suffix++ {
				name = fmt.Sprintf("rt_%s_l%d%c", nodeLabel(c, rootOld), len(ch)+1, suffix)
			}
			ch = append(ch, out.AddEnabledLatch(name, prev, newEnable))
			latchCount++
		}
		chains[rootOld] = ch
		return ch[w-1]
	}
	// Pass 2: wire fanins through retimed-latch chains.
	for _, n := range c.Nodes {
		if n.Kind != netlist.KindGate {
			continue
		}
		v := g.vertOf[n.ID]
		for j, f := range n.Fanins {
			root, w := rootThroughLatchesFrom(c, f, g.frozen)
			u := g.vertOf[root]
			wNew := w + r[v] - r[u]
			if wNew < 0 {
				return nil, fmt.Errorf("retime: negative edge weight after retiming (internal error)")
			}
			out.Nodes[newID[n.ID]].Fanins[j] = chain(root, wNew)
		}
	}
	// Frozen latch data: stays at lag 0 (the latch is a fixed leaf).
	for _, id := range c.Latches {
		if !g.frozen[id] {
			continue
		}
		root, w := rootThroughLatchesFrom(c, c.Nodes[id].Data(), g.frozen)
		wNew := w - r[g.vertOf[root]]
		if wNew < 0 {
			return nil, fmt.Errorf("retime: negative frozen-latch weight (internal error)")
		}
		out.SetLatchData(newID[id], chain(root, wNew))
	}
	for _, o := range c.Outputs {
		root, w := rootThroughLatchesFrom(c, o.Node, g.frozen)
		u := g.vertOf[root]
		wNew := w + 0 - r[u] // host lag is 0
		if wNew < 0 {
			return nil, fmt.Errorf("retime: negative output weight after retiming (internal error)")
		}
		out.AddOutput(o.Name, chain(root, wNew))
	}
	swept := netlist.Sweep(out, true)
	if err := swept.Check(); err != nil {
		return nil, fmt.Errorf("retime: rebuilt circuit invalid: %w", err)
	}
	moves := 0
	for v := 2; v < len(r); v++ {
		if r[v] != 0 {
			moves++
		}
	}
	return &Result{Circuit: swept, Period: period, Latches: len(swept.Latches), Moves: moves}, nil
}

func nodeLabel(c *netlist.Circuit, id int) string {
	if n := c.Nodes[id]; n.Name != "" {
		return sanitize(n.Name)
	}
	return fmt.Sprintf("n%d", id)
}

func sanitize(s string) string {
	b := []byte(s)
	for i := range b {
		switch b[i] {
		case ' ', '\t':
			b[i] = '_'
		}
	}
	return string(b)
}

// addRaw appends a prebuilt node (internal helper mirroring Circuit.add
// semantics via the public API surface).
func addRaw(c *netlist.Circuit, n *netlist.Node) int {
	switch {
	case n.Op == netlist.OpTable:
		return c.AddTable(n.Name, n.Fanins, n.Cover)
	case n.Op == netlist.OpConst0 || n.Op == netlist.OpConst1:
		return c.AddGate(n.Name, n.Op)
	default:
		return c.AddGate(n.Name, n.Op, n.Fanins...)
	}
}

// Period computes the circuit's current clock period (maximum gate count
// on a latch-free path) without retiming. Works on any latch-class mix.
func Period(c *netlist.Circuit) (int, error) {
	g, err := buildGraphClass(c, moveNone)
	if err != nil {
		return 0, err
	}
	p := g.clockPeriod(make([]int, len(g.gateOf)))
	if p < 0 {
		return 0, fmt.Errorf("retime: combinational cycle")
	}
	return p, nil
}

// MinPossiblePeriod reports the minimum feasible period without
// rebuilding the circuit.
func MinPossiblePeriod(c *netlist.Circuit) (int, error) {
	g, err := buildGraph(c)
	if err != nil {
		return 0, err
	}
	hi := g.clockPeriod(make([]int, len(g.gateOf)))
	if hi < 0 {
		return 0, fmt.Errorf("retime: combinational cycle")
	}
	best := hi
	lo := 1
	for lo <= hi {
		mid := (lo + hi) / 2
		if g.feas(mid) != nil {
			best = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, nil
}
