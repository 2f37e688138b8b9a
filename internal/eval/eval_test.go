package eval

import (
	"testing"
)

// These tests assert the *shape* of the paper's evaluation results — the
// reproduction target defined in DESIGN.md: orderings and rough ratios
// must match Table 3, §8.1, and Figure 5 even though absolute cycle
// numbers come from our calibrated model rather than a Cortex-A7.

func table3Map(t *testing.T) map[string]uint64 {
	t.Helper()
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]uint64)
	for _, r := range rows {
		m[r.Operation] = r.Cycles
	}
	return m
}

func TestTable3Complete(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 3 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 {
			t.Errorf("row %q measured 0 cycles", r.Operation)
		}
		if r.PaperCycles == 0 {
			t.Errorf("row %q missing the paper's number", r.Operation)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	m := table3Map(t)
	// The paper's ordering (123 < 217 < 496 < 625 < 738 < 5826 < 12411 <
	// 13373) must hold in our reproduction.
	order := []string{"GetPhysPages", "AllocSpare", "Enter", "Resume", "Enter + Exit", "MapData", "Attest", "Verify"}
	for i := 1; i < len(order); i++ {
		lo, hi := order[i-1], order[i]
		if m[lo] >= m[hi] {
			t.Errorf("ordering violated: %s (%d) >= %s (%d)", lo, m[lo], hi, m[hi])
		}
	}
	// Rough ratios: the crossing is several times the null SMC; the
	// attestations are more than 10× the crossing; MapData is dominated
	// by the 4 kB zero-fill.
	if m["Enter + Exit"] < 3*m["GetPhysPages"] {
		t.Errorf("crossing (%d) should be several times the null SMC (%d)", m["Enter + Exit"], m["GetPhysPages"])
	}
	if m["Attest"] < 8*m["Enter + Exit"] {
		t.Errorf("attest (%d) should dwarf the crossing (%d)", m["Attest"], m["Enter + Exit"])
	}
	if m["MapData"] < 4000 {
		t.Errorf("MapData (%d) should be dominated by the page zero-fill", m["MapData"])
	}
}

func TestTable3Deterministic(t *testing.T) {
	a := table3Map(t)
	b := table3Map(t)
	for op, v := range a {
		if b[op] != v {
			t.Errorf("%s: %d vs %d across runs", op, v, b[op])
		}
	}
}

func TestSGXComparisonShape(t *testing.T) {
	rows, err := SGXComparison()
	if err != nil {
		t.Fatal(err)
	}
	var full SGXRow
	for _, r := range rows {
		if r.Operation == "Full crossing" {
			full = r
		}
		if r.Komodo == 0 || r.SGX == 0 {
			t.Fatalf("row %q has a zero side: %+v", r.Operation, r)
		}
	}
	// §8.1: "the Komodo result represents an order of magnitude
	// improvement" — require at least 5×.
	if full.SGX < 5*full.Komodo {
		t.Errorf("SGX crossing (%d) not ≫ Komodo crossing (%d)", full.SGX, full.Komodo)
	}
	if full.SGX != 7100 {
		t.Errorf("SGX model crossing = %d, want the published 7100", full.SGX)
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 sweep is slow")
	}
	pts, err := Figure5([]int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points: %d", len(pts))
	}
	for _, p := range pts {
		if p.EnclaveMS <= 0 || p.NativeMS <= 0 {
			t.Fatalf("non-positive time at %d kB: %+v", p.KB, p)
		}
		// The enclave and native curves essentially coincide ("the notary
		// performs equivalently in an enclave to a native Linux process").
		ratio := p.EnclaveMS / p.NativeMS
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%d kB: enclave/native ratio %.3f outside [0.8, 1.25]", p.KB, ratio)
		}
	}
	// Both series are linear in input size: 16× the input ≈ 16× the time.
	growth := pts[2].EnclaveMS / pts[0].EnclaveMS
	if growth < 10 || growth > 22 {
		t.Errorf("64kB/4kB time ratio %.2f, want ≈16 (linear)", growth)
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	unopt, opt := rows[0], rows[1]
	// The optimised steady-state crossing beats the paper-faithful one:
	// the §8.1 claim that the prototype's conservatism leaves headroom.
	if opt.RepeatCrossing >= unopt.RepeatCrossing {
		t.Errorf("optimised repeat (%d) not cheaper than unoptimised (%d)",
			opt.RepeatCrossing, unopt.RepeatCrossing)
	}
	// And the hot crossing benefits more than the cold one.
	if opt.RepeatCrossing > opt.FirstCrossing {
		t.Errorf("optimised hot crossing (%d) dearer than cold (%d)",
			opt.RepeatCrossing, opt.FirstCrossing)
	}
}

func TestCountLines(t *testing.T) {
	rows, err := CountLines("../..")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make(map[string]bool)
	for _, r := range rows {
		seen[r.Component] = true
		total += r.Spec + r.Impl + r.Proof
	}
	if total < 5000 {
		t.Fatalf("implausible total line count %d", total)
	}
	if core, err := CoreLines("../.."); err != nil || core < 1000 {
		t.Fatalf("trusted-core line count %d, %v", core, err)
	}
	for _, want := range []string{
		"ARM/TrustZone machine model",
		"Komodo specification (PageDB, SMC/SVC spec)",
		"Monitor implementation",
		"Verification harnesses (refinement, NI)",
	} {
		if !seen[want] {
			t.Errorf("component %q missing from the breakdown", want)
		}
	}
	if len(PaperTable2Rows()) != 9 {
		t.Error("paper Table 2 rows incomplete")
	}
}

func TestDensity(t *testing.T) {
	pts, err := Density([]int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// The crossing cost is flat in the number of resident enclaves: the
	// monitor's dispatch is O(1) in enclaves (PageDB-indexed), which is
	// what lets "any number of enclaves" coexist (§1).
	lo, hi := pts[0].CrossingCycles, pts[2].CrossingCycles
	if hi > lo*12/10 {
		t.Errorf("crossing cost grows with density: %d -> %d", lo, hi)
	}
	if pts[0].BuildCycles == 0 {
		t.Error("build cost not measured")
	}
}

func TestMaxEnclaves(t *testing.T) {
	n, err := MaxEnclaves()
	if err != nil {
		t.Fatal(err)
	}
	// A minimal enclave takes 6 secure pages (addrspace, L1, L2, code,
	// data, thread): 254 usable pages / 6 = 42 enclaves resident at once
	// in the default 1 MB secure region.
	if n != 42 {
		t.Errorf("packed %d enclaves, want 42", n)
	}
}
