package cec

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"seqver/internal/netlist"
)

func parse(t *testing.T, blif string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

// golden computes o1 = (a&b)|c and o2 = a^c through two named
// intermediate signals.
const goldenBLIF = `.model golden
.inputs a b c
.outputs o1 o2
.names a b t1
11 1
.names t1 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.end
`

// goldenPermuted is the same netlist with the input declaration order,
// gate declaration order (forward references), output order, and
// internal signal names all changed. Structure is untouched.
const goldenPermuted = `.model golden_permuted
.outputs o2 o1
.inputs c b a
.names u9 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.names a b u9
11 1
.end
`

// goldenMutated flips one cube in one gate: t1 becomes a|b instead of
// a&b.
const goldenMutated = `.model golden_mutated
.inputs a b c
.outputs o1 o2
.names a b t1
1- 1
-1 1
.names t1 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.end
`

func TestMiterHashPermutationInvariant(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	c2 := parse(t, goldenPermuted)
	h11, err := MiterHash(c1, c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h11) != 32 {
		t.Fatalf("hash %q: want 32 hex chars", h11)
	}
	h22, err := MiterHash(c2, c2)
	if err != nil {
		t.Fatal(err)
	}
	if h11 != h22 {
		t.Errorf("permuted declarations changed the miter hash: %s vs %s", h11, h22)
	}
	// Mixed pairs present the same problem too.
	h12, err := MiterHash(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if h12 != h11 {
		t.Errorf("MiterHash(c1,c2)=%s != MiterHash(c1,c1)=%s for identical structure", h12, h11)
	}
}

func TestMiterHashMutationSensitive(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	cm := parse(t, goldenMutated)
	h1, err := MiterHash(c1, c1)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := MiterHash(c1, cm)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == hm {
		t.Error("single-gate mutation did not change the miter hash")
	}
	// Swapping sides changes which cone is "l$" and which "r$".
	hswap, err := MiterHash(cm, c1)
	if err != nil {
		t.Fatal(err)
	}
	if hswap == hm {
		t.Error("side swap of an asymmetric pair did not change the hash")
	}
}

func TestMiterHashRejectsBadInput(t *testing.T) {
	seq := parse(t, `.model seq
.inputs a
.outputs o
.latch a q 0
.names q o
1 1
.end
`)
	comb := parse(t, goldenBLIF)
	if _, err := MiterHash(seq, seq); err == nil {
		t.Error("latched circuit accepted")
	}
	other := parse(t, `.model other
.inputs a
.outputs different
.names a different
1 1
.end
`)
	if _, err := MiterHash(comb, other); err == nil {
		t.Error("mismatched output names accepted")
	}
}

// TestMiterHashMatchesCheck ties the key to the cache-soundness
// contract: pairs with equal hashes must get the same decided verdict.
func TestMiterHashMatchesCheck(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	c2 := parse(t, goldenPermuted)
	res, err := Check(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("permuted pair: verdict %v, want equivalent", res.Verdict)
	}
	cm := parse(t, goldenMutated)
	res, err = Check(c1, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("mutated pair: verdict %v, want inequivalent", res.Verdict)
	}
}

// TestMiterSharedReadOnly pins that a built Miter is only read after
// construction: its hash and concurrent checks over it (each with its
// own worker pool) agree with each other and leave its output edges as
// they were, so the daemon can hash a miter and then check the same
// object. CI runs it under -race.
func TestMiterSharedReadOnly(t *testing.T) {
	// The xor chains are equal but share no structure, so every miter
	// reaches the worker pool; the mutant adds an inequivalent pair.
	xc1, xc2 := xorPairs(3)
	pairs := [][2]*netlist.Circuit{
		{xc1, xc2},
		{parse(t, goldenBLIF), parse(t, goldenMutated)},
	}
	for _, p := range pairs {
		m, err := jointAIG(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		hash := m.Hash()
		pos1, pos2 := slices.Clone(m.POs1), slices.Clone(m.POs2)
		want, err := CheckMiterCtx(context.Background(), m, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, engine := range []string{"hybrid", "portfolio", "hybrid"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := CheckMiterCtx(context.Background(), m, Options{Engine: engine, Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Verdict != want.Verdict || res.FailingOutput != want.FailingOutput {
					t.Errorf("%s: verdict %v on %q, serial check %v on %q", engine,
						res.Verdict, res.FailingOutput, want.Verdict, want.FailingOutput)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h := m.Hash(); h != hash {
				t.Errorf("hash moved during checks: %s, was %s", h, hash)
			}
		}()
		wg.Wait()
		if !slices.Equal(m.POs1, pos1) || !slices.Equal(m.POs2, pos2) || m.Hash() != hash {
			t.Error("checking the miter changed its output edges or hash")
		}
	}
}
