package mcmf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// runSPFA is the reference Run: successive shortest paths with a full
// SPFA (queue-based Bellman-Ford) pass per augmentation and no node
// potentials. Run must agree with it on flow and cost.
func (g *Graph) runSPFA(s, t int) (*Result, error) {
	res := &Result{}
	dist := make([]int64, g.n)
	inQueue := make([]bool, g.n)
	prevArc := make([]int32, g.n)
	visits := make([]int32, g.n)

	for {
		for i := range dist {
			dist[i] = unreached
			prevArc[i] = -1
			visits[i] = 0
			inQueue[i] = false
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
				nd := dist[u] + g.cost[a]
				if nd < dist[v] {
					dist[v] = nd
					prevArc[v] = a
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
		if dist[t] >= unreached {
			return res, nil
		}
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
		res.Cost += push * dist[t]
	}
}

// solveDifferenceLPSPFA is SolveDifferenceLP on top of runSPFA.
func solveDifferenceLPSPFA(nvars int, c []int64, cons []Constraint) []int64 {
	g, s, t, demand := differenceDual(nvars, c, cons)
	res, err := g.runSPFA(s, t)
	if err != nil || res.Flow != demand {
		return nil
	}
	return g.recoverPrimal(nvars, len(cons))
}

// randomNetwork builds the same random network into two graphs. Arc
// costs are a nonnegative base plus a potential difference, so many are
// negative but no cycle is.
func randomNetwork(rng *rand.Rand) (a, b *Graph, s, t int) {
	n := 4 + rng.Intn(20)
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(rng.Intn(21) - 10)
	}
	a, b = New(n), New(n)
	m := n + rng.Intn(4*n)
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		capacity := int64(1 + rng.Intn(5))
		if rng.Intn(6) == 0 {
			capacity = Inf
		}
		cost := int64(rng.Intn(4)) + p[u] - p[v]
		a.AddArc(u, v, capacity, cost)
		b.AddArc(u, v, capacity, cost)
	}
	// Bound the s->t flow so uncapacitated paths cannot overflow cost.
	s, t = a.AddNode(), a.AddNode()
	b.AddNode()
	b.AddNode()
	for k := 0; k < 3; k++ {
		x, y := rng.Intn(n), rng.Intn(n)
		capS, capT := int64(1+rng.Intn(6)), int64(1+rng.Intn(6))
		a.AddArc(s, x, capS, 0)
		b.AddArc(s, x, capS, 0)
		a.AddArc(y, t, capT, 0)
		b.AddArc(y, t, capT, 0)
	}
	return a, b, s, t
}

func TestRunMatchesSPFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	negative := 0
	for trial := 0; trial < 500; trial++ {
		g, ref, s, tt := randomNetwork(rng)
		for _, c := range g.cost {
			if c < 0 {
				negative++
				break
			}
		}
		got, gerr := g.Run(s, tt)
		want, werr := ref.runSPFA(s, tt)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("trial %d: error %v, reference error %v", trial, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if got.Flow != want.Flow || got.Cost != want.Cost {
			t.Fatalf("trial %d: flow=%d cost=%d, reference flow=%d cost=%d",
				trial, got.Flow, got.Cost, want.Flow, want.Cost)
		}
	}
	if negative < 400 {
		t.Fatalf("only %d of 500 networks had a negative-cost arc", negative)
	}
}

func TestRunNegativeCycleMatchesSPFAReference(t *testing.T) {
	// A negative cycle reachable from s is reported by both.
	build := func() *Graph {
		g := New(4)
		g.AddArc(0, 1, 2, 0)
		g.AddArc(1, 2, 2, -3)
		g.AddArc(2, 1, 2, 1)
		g.AddArc(2, 3, 2, 0)
		return g
	}
	if _, err := build().Run(0, 3); err == nil {
		t.Fatal("Run missed a negative cycle")
	}
	if _, err := build().runSPFA(0, 3); err == nil {
		t.Fatal("reference missed a negative cycle")
	}
}

// randomDifferenceLP draws a zero-sum objective over n variables and a
// random constraint set: usually feasible and bounded, sometimes not.
func randomDifferenceLP(rng *rand.Rand) (int, []int64, []Constraint) {
	n := 3 + rng.Intn(25)
	c := make([]int64, n)
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			v := int64(rng.Intn(3) + 1)
			c[i] += v
			c[j] -= v
		}
	}
	var cons []Constraint
	if rng.Intn(8) != 0 {
		// Box every variable against 0, as the retiming LP's latch
		// legality constraints do; without it the LP may be unbounded.
		for x := 1; x < n; x++ {
			cons = append(cons, Constraint{x, 0, int64(1 + rng.Intn(3))})
			cons = append(cons, Constraint{0, x, int64(1 + rng.Intn(3))})
		}
	}
	for k := 0; k < 2*n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		bound := int64(rng.Intn(5))
		if rng.Intn(10) == 0 {
			bound = -1
		}
		if a != b {
			cons = append(cons, Constraint{a, b, bound})
		}
	}
	return n, c, cons
}

func TestSolveDifferenceLPMatchesSPFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	solved := 0
	for trial := 0; trial < 500; trial++ {
		n, c, cons := randomDifferenceLP(rng)
		got := SolveDifferenceLP(n, c, cons)
		want := solveDifferenceLPSPFA(n, c, cons)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: r = %v, reference r = %v", trial, got, want)
		}
		if got != nil {
			solved++
		}
	}
	if solved < 200 {
		t.Fatalf("only %d of 500 random LPs were feasible and bounded", solved)
	}
}
