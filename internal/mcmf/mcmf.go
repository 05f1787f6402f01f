// Package mcmf implements min-cost max-flow with successive shortest
// paths: one SPFA pass sets node potentials, so negative arc costs are
// allowed as long as no negative cycle exists, and every augmenting
// path after it comes from Dijkstra on reduced costs. It is the LP
// engine behind exact minimum-area retiming: the Leiserson-Saxe
// minimum-register LP is the dual of an uncapacitated transshipment
// problem, which Minaret — the tool the paper used — solves exactly
// this way.
package mcmf

import "fmt"

// Graph is a flow network under construction. Nodes are dense ints.
type Graph struct {
	n     int
	head  []int32 // per arc: target node
	next  []int32 // per arc: next arc out of the same node
	first []int32 // per node: first arc
	cap   []int64
	cost  []int64
}

// New returns an empty network with n nodes.
func New(n int) *Graph {
	g := &Graph{n: n, first: make([]int32, n)}
	for i := range g.first {
		g.first[i] = -1
	}
	return g
}

// Inf is a practically unbounded capacity.
const Inf int64 = 1 << 50

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	g.first = append(g.first, -1)
	g.n++
	return g.n - 1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// AddArc adds a directed arc u->v with the given capacity and unit cost,
// plus its residual reverse arc. It returns the arc index (even; the
// reverse is index+1).
func (g *Graph) AddArc(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: arc (%d,%d) out of range n=%d", u, v, g.n))
	}
	id := len(g.head)
	g.head = append(g.head, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.next = append(g.next, g.first[u], g.first[v])
	g.first[u] = int32(id)
	g.first[v] = int32(id + 1)
	return id
}

// Flow returns the flow currently on arc id (forward arcs only).
func (g *Graph) Flow(id int) int64 { return g.cap[id^1] }

// Result carries the outcome of a run.
type Result struct {
	Flow int64
	Cost int64
}

const unreached = int64(1) << 62

// Run pushes as much flow as possible from s to t at minimum cost, by
// successive shortest paths. One SPFA (queue-based Bellman-Ford) pass
// from s sets the initial node potentials, so arc costs may be negative;
// it returns an error if that pass finds a negative cycle. Every
// augmenting path after it comes from Dijkstra on the reduced costs,
// which the potentials keep nonnegative.
func (g *Graph) Run(s, t int) (*Result, error) {
	res := &Result{}
	pot, err := g.initialPotentials(s)
	if err != nil {
		return nil, err
	}
	dist := make([]int64, g.n)
	done := make([]bool, g.n)
	prevArc := make([]int32, g.n)
	var h distHeap
	for {
		for i := range dist {
			dist[i] = unreached
			done[i] = false
		}
		dist[s] = 0
		h = append(h[:0], distItem{0, int32(s)})
		for len(h) > 0 {
			it := h.pop()
			u := it.v
			if done[u] {
				continue
			}
			done[u] = true
			if u == int32(t) {
				break // every node settled so far is final
			}
			for a := g.first[u]; a != -1; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				v := g.head[a]
				if done[v] {
					continue
				}
				// Reduced cost, nonnegative by the potential invariant.
				nd := it.d + g.cost[a] + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevArc[v] = a
					h.push(distItem{nd, v})
				}
			}
		}
		if !done[t] {
			return res, nil // no augmenting path left
		}
		// Nodes not settled before t get dist[t]: capping keeps every
		// residual arc's reduced cost nonnegative. Nodes unreachable from
		// s stay unreachable, so their potentials never matter.
		dt := dist[t]
		for v := range pot {
			if done[v] {
				pot[v] += dist[v]
			} else if pot[v] < unreached {
				pot[v] += dt
			}
		}
		// Find bottleneck and augment.
		push := Inf
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			if g.cap[a] < push {
				push = g.cap[a]
			}
			v = g.head[a^1]
		}
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			g.cap[a] -= push
			g.cap[a^1] += push
			v = g.head[a^1]
		}
		res.Flow += push
		res.Cost += push * (pot[t] - pot[s])
	}
}

// initialPotentials returns the SPFA shortest-path distances from s
// over positive-residual arcs (unreached for nodes s cannot reach), or
// an error if a negative cycle is reachable from s.
func (g *Graph) initialPotentials(s int) ([]int64, error) {
	dist := make([]int64, g.n)
	inQueue := make([]bool, g.n)
	visits := make([]int32, g.n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	inQueue[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for a := g.first[u]; a != -1; a = g.next[a] {
			if g.cap[a] <= 0 {
				continue
			}
			v := g.head[a]
			if nd := dist[u] + g.cost[a]; nd < dist[v] {
				dist[v] = nd
				if !inQueue[v] {
					visits[v]++
					if visits[v] > int32(g.n)+1 {
						return nil, fmt.Errorf("mcmf: negative cycle detected")
					}
					inQueue[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return dist, nil
}

type distItem struct {
	d int64
	v int32
}

// distHeap is a binary min-heap on d.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].d <= q[i].d {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && q[l].d < q[m].d {
			m = l
		}
		if r < last && q[r].d < q[m].d {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Constraint is one difference constraint r[A] - r[B] <= Bound.
type Constraint struct {
	A, B  int
	Bound int64
}

// SolveDifferenceLP minimizes sum(c[x] * r[x]) subject to difference
// constraints r[a] - r[b] <= bound for each constraint, by solving the
// dual transshipment with min-cost flow and recovering r from the final
// residual network. The objective coefficients must sum to zero (the LP
// is translation invariant); r is normalized so that r[0] == 0. It
// returns nil when the LP is infeasible or unbounded.
//
// The r returned is the extreme point of the optimal face selected by
// the residual shortest-path distances. Every min-cost flow has the
// same optimal face, so r does not depend on which one Run finds.
func SolveDifferenceLP(nvars int, c []int64, cons []Constraint) []int64 {
	g, s, t, demand := differenceDual(nvars, c, cons)
	res, err := g.Run(s, t)
	if err != nil {
		return nil // negative cycle: primal infeasible
	}
	if res.Flow != demand {
		return nil // dual infeasible: primal unbounded
	}
	return g.recoverPrimal(nvars, len(cons))
}

// differenceDual builds the dual transshipment network of the LP: node
// x needs net inflow c[x], and constraint (a, b, bound) is an
// uncapacitated arc a->b with cost bound. Supplies and demands hang off
// the returned super source s and super sink t.
func differenceDual(nvars int, c []int64, cons []Constraint) (g *Graph, s, t int, demand int64) {
	var sum int64
	for _, ci := range c {
		sum += ci
	}
	if sum != 0 {
		panic("mcmf: objective coefficients must sum to zero")
	}
	g = New(nvars)
	for _, cn := range cons {
		g.AddArc(cn.A, cn.B, Inf, cn.Bound)
	}
	s = g.AddNode()
	t = g.AddNode()
	for x := 0; x < nvars; x++ {
		switch {
		case c[x] > 0:
			g.AddArc(x, t, c[x], 0)
			demand += c[x]
		case c[x] < 0:
			g.AddArc(s, x, -c[x], 0)
		}
	}
	return g, s, t, demand
}

// recoverPrimal returns r = -dist over the residual network of an
// optimal flow, restricted to the nvars LP nodes, with distances taken
// from a virtual source joined to every node at distance 0 (valid: no
// negative cycles at optimality). It returns nil on a residual negative
// cycle, which a min-cost flow never leaves.
func (g *Graph) recoverPrimal(nvars, ncons int) []int64 {
	dist := make([]int64, nvars)
	for iter := 0; ; iter++ {
		changed := false
		for u := 0; u < nvars; u++ {
			for a := g.first[u]; a != -1; a = g.next[a] {
				v := int(g.head[a])
				if v >= nvars || g.cap[a] <= 0 {
					continue
				}
				if nd := dist[u] + g.cost[a]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter > nvars+ncons+2 {
			return nil
		}
	}
	r := make([]int64, nvars)
	for x := range r {
		r[x] = dist[0] - dist[x]
	}
	return r
}
