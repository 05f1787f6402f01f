package retime

import (
	"container/heap"

	"seqver/internal/mcmf"
)

// This file implements exact constrained minimum-area retiming as the
// Leiserson-Saxe LP, solved through its min-cost-flow dual — the same
// formulation Minaret (Maheshwari-Sapatnekar DAC'97), the paper's
// retiming tool, solves. Register sharing across fanouts is modeled with
// one mirror variable per driving signal: the shared chain length of
// root ρ driven by vertex u is  S_ρ = wmax_ρ + r(û_ρ) - r(u), with
// constraints  r(v_i) - r(û_ρ) <= wmax_ρ - w(e_i)  forcing
// S_ρ >= w_r(e_i) for every fanout edge, so minimizing Σ S_ρ minimizes
// the shared latch count exactly.
//
// Timing is enforced with the classical W/D matrices: for every vertex
// pair with D(u,v) > period, the constraint r(u) - r(v) <= W(u,v) - 1.

// ExactMinAreaThreshold bounds the vertex count for which the O(V^2)
// W/D-matrix LP is attempted; larger graphs use the hill-climbing
// fallback in reduceArea.
var ExactMinAreaThreshold = 900

// wdMatrices computes W (minimum path latch count) and D (maximum total
// vertex delay among W-minimal paths), with W[u][v] < 0 marking
// unreachable pairs. Complexity O(V E log V) via per-source lexicographic
// Dijkstra (valid: edge weights are nonnegative in the first component).
func (g *graph) wdMatrices() (W [][]int32, D [][]int32) {
	nv := len(g.gateOf)
	topo := g.zeroWeightTopo()
	W = make([][]int32, nv)
	D = make([][]int32, nv)
	for u := 0; u < nv; u++ {
		W[u], D[u] = g.lexDijkstra(u, topo)
	}
	return W, D
}

type wItem struct {
	w int32
	v int32
}

type wHeap []wItem

func (h wHeap) Len() int            { return len(h) }
func (h wHeap) Less(i, j int) bool  { return h[i].w < h[j].w }
func (h wHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wHeap) Push(x interface{}) { *h = append(*h, x.(wItem)) }
func (h *wHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// lexDijkstra computes, from one source, W (minimum latch count) by plain
// Dijkstra, then D (maximum total vertex delay among W-minimal paths) by
// a longest-path pass over the tight subgraph. The tight subgraph is
// acyclic (a tight cycle would be a zero-weight cycle, impossible in a
// legal circuit), and processing nodes by (W, zero-weight topological
// position) is a valid schedule: tight edges with w > 0 increase W, tight
// edges with w == 0 respect the zero-weight topological order, which
// topo holds (zeroWeightTopo).
//
// (A single lexicographic Dijkstra is NOT correct here — the secondary
// objective is a maximization, which breaks the finality invariant; see
// TestWDMatricesAgainstBruteForce, which caught exactly that.)
func (g *graph) lexDijkstra(src int, topo []int) (W []int32, D []int32) {
	nv := len(g.gateOf)
	W = make([]int32, nv)
	for i := range W {
		W[i] = -1
	}
	done := make([]bool, nv)
	h := &wHeap{{0, int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(wItem)
		v := int(it.v)
		if done[v] {
			continue
		}
		done[v] = true
		W[v] = it.w
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if !done[e.v] {
				heap.Push(h, wItem{it.w + int32(e.w), int32(e.v)})
			}
		}
	}
	// Longest-delay pass over tight edges in (W, topo) order.
	D = make([]int32, nv)
	reachedD := make([]bool, nv)
	D[src] = int32(g.delay[src])
	reachedD[src] = true
	for _, v := range wdOrder(W, topo) {
		if !reachedD[v] {
			continue
		}
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if W[e.v] < 0 || W[v]+int32(e.w) != W[e.v] {
				continue // not tight
			}
			cand := D[v] + int32(g.delay[e.v])
			if !reachedD[e.v] || cand > D[e.v] {
				D[e.v] = cand
				reachedD[e.v] = true
			}
		}
	}
	return W, D
}

// wdOrder returns the vertices reachable from the source (W >= 0) sorted
// by (W, position in topo): a counting sort on W over topo, which is
// already in the second key's order. The keys are unique.
func wdOrder(W []int32, topo []int) []int {
	var maxW int32 = -1
	for _, v := range topo {
		maxW = max(maxW, W[v])
	}
	next := make([]int, maxW+2) // next[w]: first free slot for key w
	for _, v := range topo {
		if W[v] >= 0 {
			next[W[v]+1]++
		}
	}
	for w := 1; w < len(next); w++ {
		next[w] += next[w-1]
	}
	order := make([]int, next[len(next)-1])
	for _, v := range topo {
		if w := W[v]; w >= 0 {
			order[next[w]] = v
			next[w]++
		}
	}
	return order
}

// zeroWeightTopo returns the vertices in a topological order of the
// zero-weight edge subgraph (acyclic in a legal circuit).
func (g *graph) zeroWeightTopo() []int {
	nv := len(g.gateOf)
	indeg := make([]int, nv)
	for _, e := range g.edges {
		if e.w == 0 {
			indeg[e.v]++
		}
	}
	queue := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, ei := range g.out[queue[qi]] {
			e := g.edges[ei]
			if e.w != 0 {
				continue
			}
			indeg[e.v]--
			if indeg[e.v] == 0 {
				queue = append(queue, e.v)
			}
		}
	}
	return queue
}

// exactMinArea returns an optimal legal lag vector achieving the given
// period with minimal shared latch count, or nil when the LP machinery
// does not apply (too large, or infeasible — callers fall back to FEAS +
// hill-climbing).
func (g *graph) exactMinArea(period int) []int {
	nv := len(g.gateOf)
	if nv > ExactMinAreaThreshold {
		return nil
	}
	// LP variables: 0 = ground (source and sink, both pinned at lag 0),
	// 1..nv-2 = gate vertices, then one mirror per distinct root.
	varOf := func(vert int) int {
		if vert == srcVertex || vert == sinkVertex {
			return 0
		}
		return vert - 1
	}
	next := nv - 1
	mirror := map[int]int{} // root node -> LP var
	wmax := map[int]int{}
	for _, e := range g.edges {
		if _, ok := mirror[e.root]; !ok {
			mirror[e.root] = next
			next++
		}
		if e.w > wmax[e.root] {
			wmax[e.root] = e.w
		}
	}
	nvars := next
	c := make([]int64, nvars)
	rootVert := map[int]int{}
	for _, e := range g.edges {
		rootVert[e.root] = e.u
	}
	for root, mv := range mirror {
		c[mv]++
		c[varOf(rootVert[root])]--
	}

	var cons []mcmf.Constraint
	addCon := func(a, b, bound int) {
		if a == b {
			return
		}
		cons = append(cons, mcmf.Constraint{A: a, B: b, Bound: int64(bound)})
	}
	// Legality + mirror constraints.
	for _, e := range g.edges {
		addCon(varOf(e.u), varOf(e.v), e.w)
		addCon(varOf(e.v), mirror[e.root], wmax[e.root]-e.w)
	}
	// Timing constraints from the W/D matrices.
	W, D := g.wdMatrices()
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			if W[u][v] < 0 || int(D[u][v]) <= period {
				continue
			}
			addCon(varOf(u), varOf(v), int(W[u][v])-1)
		}
	}
	sol := mcmf.SolveDifferenceLP(nvars, c, cons)
	if sol == nil {
		return nil
	}
	r := make([]int, nv)
	for v := 2; v < nv; v++ {
		r[v] = int(sol[varOf(v)] - sol[0])
	}
	// Defense in depth: the LP should be exact, but reject any labeling
	// that is illegal or misses the period (fall back upstream).
	if !g.legal(r) {
		return nil
	}
	if cp := g.clockPeriod(r); cp < 0 || cp > period {
		return nil
	}
	return r
}
