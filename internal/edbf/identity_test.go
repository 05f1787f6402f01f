package edbf_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"seqver/internal/bdd"
	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/synth"
)

// refCtx is the EDBF unroller as it was before latch crossings were
// memoized and intern keys built without fmt: every (latch, event) pair
// builds, canonizes and keys its next event afresh. It is the oracle
// that pins event ids, variable names and unrolled circuits.
type refCtx struct {
	m       *bdd.Manager
	varOf   map[string]int
	predID  map[bdd.Ref]int
	preds   []bdd.Ref
	eventID map[string]int
	events  []edbf.Event
	rewrite bool
}

func newRefCtx(rewrite bool) *refCtx {
	return &refCtx{m: bdd.New(0), varOf: map[string]int{}, predID: map[bdd.Ref]int{},
		eventID: map[string]int{}, rewrite: rewrite}
}

func refKey(e edbf.Event) string {
	var sb strings.Builder
	for _, el := range e.Elems {
		fmt.Fprintf(&sb, "p%dd%d;", el.Pred, el.Delta)
	}
	fmt.Fprintf(&sb, "|%d", e.Depth)
	return sb.String()
}

func (cx *refCtx) internEvent(e edbf.Event) int {
	k := refKey(e)
	if id, ok := cx.eventID[k]; ok {
		return id
	}
	cx.events = append(cx.events, e)
	cx.eventID[k] = len(cx.events) - 1
	return len(cx.events) - 1
}

func (cx *refCtx) internPred(f bdd.Ref) int {
	if id, ok := cx.predID[f]; ok {
		return id
	}
	cx.preds = append(cx.preds, f)
	cx.predID[f] = len(cx.preds) - 1
	return len(cx.preds) - 1
}

func (cx *refCtx) eventString(id int) string {
	e := cx.events[id]
	var sb strings.Builder
	sb.WriteByte('[')
	for i, el := range e.Elems {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "p%d@%d", el.Pred, el.Delta)
	}
	fmt.Fprintf(&sb, "]|d%d", e.Depth)
	return sb.String()
}

func (cx *refCtx) canon(e edbf.Event) edbf.Event {
	sort.Slice(e.Elems, func(i, j int) bool { return e.Elems[i].Delta < e.Elems[j].Delta })
	for changed := cx.rewrite; changed; {
		changed = false
		for i := 0; i+1 < len(e.Elems); i++ {
			p, q := e.Elems[i], e.Elems[i+1]
			if q.Delta == p.Delta+1 && cx.m.Leq(cx.preds[q.Pred], cx.preds[p.Pred]) {
				e.Elems = append(e.Elems[:i], e.Elems[i+1:]...)
				changed = true
				break
			}
		}
	}
	return e
}

// predicate is the enable cone's function over primary inputs.
func (cx *refCtx) predicate(c *netlist.Circuit, id int, memo map[int]bdd.Ref) bdd.Ref {
	if f, ok := memo[id]; ok {
		return f
	}
	n := c.Nodes[id]
	var f bdd.Ref
	if n.Kind == netlist.KindInput {
		v, ok := cx.varOf[n.Name]
		if !ok {
			v = cx.m.AddVar()
			cx.varOf[n.Name] = v
		}
		f = cx.m.Var(v)
	} else {
		in := make([]bdd.Ref, len(n.Fanins))
		for i, fid := range n.Fanins {
			in[i] = cx.predicate(c, fid, memo)
		}
		switch n.Op {
		case netlist.OpConst0:
			f = bdd.False
		case netlist.OpConst1:
			f = bdd.True
		case netlist.OpBuf:
			f = in[0]
		case netlist.OpNot:
			f = in[0].Not()
		case netlist.OpAnd:
			f = cx.m.And(in...)
		case netlist.OpNand:
			f = cx.m.And(in...).Not()
		case netlist.OpOr:
			f = cx.m.Or(in...)
		case netlist.OpNor:
			f = cx.m.Or(in...).Not()
		case netlist.OpXor:
			f = cx.m.Xor(in...)
		case netlist.OpXnor:
			f = cx.m.Xor(in...).Not()
		case netlist.OpMux:
			f = cx.m.Ite(in[0], in[1], in[2])
		case netlist.OpTable:
			f = bdd.False
			for _, cu := range n.Cover {
				prod := bdd.True
				for i := 0; i < len(cu); i++ {
					switch cu[i] {
					case '1':
						prod = cx.m.And(prod, in[i])
					case '0':
						prod = cx.m.And(prod, in[i].Not())
					}
				}
				f = cx.m.Or(f, prod)
			}
		default:
			panic("refCtx: enable op " + n.Op.String())
		}
	}
	memo[id] = f
	return f
}

func (cx *refCtx) unroll(c *netlist.Circuit) *netlist.Circuit {
	out := netlist.New(c.Name + "_edbf")
	predMemo := map[int]bdd.Ref{}
	memo := map[[2]int]int{}
	type evPI struct{ inputPos, ev int }
	piNodes := map[evPI]int{}
	inputPos := map[int]int{}
	for i, id := range c.Inputs {
		inputPos[id] = i
	}
	var rec func(id, ev int) int
	rec = func(id, ev int) int {
		k := [2]int{id, ev}
		if nid, ok := memo[k]; ok {
			return nid
		}
		n := c.Nodes[id]
		var nid int
		switch n.Kind {
		case netlist.KindInput:
			tp := evPI{inputPos[id], ev}
			pid, ok := piNodes[tp]
			if !ok {
				pid = out.AddInput(edbf.VarName(n.Name, ev))
				piNodes[tp] = pid
			}
			nid = pid
		case netlist.KindLatch:
			e := cx.events[ev]
			next := edbf.Event{Elems: append([]edbf.Element(nil), e.Elems...), Depth: e.Depth + 1}
			if n.Enable != netlist.NoEnable {
				switch pred := cx.predicate(c, n.Enable, predMemo); pred {
				case bdd.True:
				case bdd.False:
					name := n.Name
					if name == "" {
						name = "n" + strconv.Itoa(id)
					}
					nid = out.AddInput(fmt.Sprintf("undef:%s#%d", name, ev))
					memo[k] = nid
					return nid
				default:
					next.Elems = append(next.Elems, edbf.Element{Pred: cx.internPred(pred), Delta: e.Depth})
				}
			}
			nid = rec(n.Data(), cx.internEvent(cx.canon(next)))
		case netlist.KindGate:
			fins := make([]int, len(n.Fanins))
			for j, f := range n.Fanins {
				fins[j] = rec(f, ev)
			}
			name := ""
			if n.Name != "" {
				name = n.Name + "#" + strconv.Itoa(ev)
			}
			if n.Op == netlist.OpTable {
				nid = out.AddTable(name, fins, n.Cover)
			} else {
				nid = out.AddGate(name, n.Op, fins...)
			}
		}
		memo[k] = nid
		return nid
	}
	empty := cx.internEvent(edbf.Event{})
	for _, o := range c.Outputs {
		out.AddOutput(o.Name, rec(o.Node, empty))
	}
	type entry struct {
		tp  evPI
		nid int
	}
	var entries []entry
	for tp, nid := range piNodes {
		entries = append(entries, entry{tp, nid})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].tp.inputPos != entries[j].tp.inputPos {
			return entries[i].tp.inputPos < entries[j].tp.inputPos
		}
		return entries[i].tp.ev < entries[j].tp.ev
	})
	ordered := make([]int, 0, len(out.Inputs))
	seen := map[int]bool{}
	for _, e := range entries {
		ordered = append(ordered, e.nid)
		seen[e.nid] = true
	}
	for _, id := range out.Inputs {
		if !seen[id] {
			ordered = append(ordered, id)
		}
	}
	out.Inputs = ordered
	return out
}

// TestUnrollMatchesReferenceStepping unrolls every Table 2 shape and its
// synth.Optimize revision, prepared the way seqver.Verify prepares them,
// through one shared Ctx, first without and then with Rewrite, and
// requires the event table, the unrolled inputs in order and the gate
// counts to equal the reference unroller's.
func TestUnrollMatchesReferenceStepping(t *testing.T) {
	for _, sp := range bench.Table2Specs {
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
		cx, ref := edbf.NewCtx(), newRefCtx(false)
		for _, rewrite := range []bool{false, true} {
			cx.Rewrite, ref.rewrite = rewrite, rewrite
			for _, c := range []*netlist.Circuit{p.Circuit, b} {
				got, err := cx.Unroll(c)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.unroll(c)
				if got.NumGates() != want.NumGates() {
					t.Fatalf("%s/%s rewrite=%v: %d gates, reference %d",
						sp.Name, c.Name, rewrite, got.NumGates(), want.NumGates())
				}
				gn, wn := got.InputNames(), want.InputNames()
				if strings.Join(gn, ",") != strings.Join(wn, ",") {
					t.Fatalf("%s/%s rewrite=%v: input names or order differ (%d vs %d inputs)",
						sp.Name, c.Name, rewrite, len(gn), len(wn))
				}
			}
			if cx.NumEvents() != len(ref.events) {
				t.Fatalf("%s rewrite=%v: %d events, reference %d", sp.Name, rewrite, cx.NumEvents(), len(ref.events))
			}
			for id := range ref.events {
				if g, w := cx.EventString(id), ref.eventString(id); g != w {
					t.Fatalf("%s rewrite=%v: event %d is %s, reference %s", sp.Name, rewrite, id, g, w)
				}
			}
		}
	}
}
