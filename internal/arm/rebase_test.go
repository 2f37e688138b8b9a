package arm_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	. "repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/rng"
)

// newSmallMachine boots prog on a 64-page insecure, 16-page secure board
// in secure supervisor mode (so RdSys may draw from the RNG).
func newSmallMachine(t *testing.T, prog *asm.Program) *Machine {
	t.Helper()
	l := mem.Layout{
		InsecureBase: 0x8000_0000, InsecureSize: 64 * mem.PageSize,
		SecureBase: 0x4000_0000, SecureSize: 16 * mem.PageSize,
	}
	phys, err := mem.NewPhysical(l)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(phys, rng.New(1))
	if prog != nil {
		img, err := prog.Assemble(l.InsecureBase)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range img {
			if err := phys.Write(l.InsecureBase+uint32(i)*4, w, mem.Normal); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.SetSCRNS(false)
	m.SetCPSR(PSR{Mode: ModeSvc, I: true, F: true})
	m.SetPC(l.InsecureBase)
	return m
}

// snapshotView restores s onto twin and reads back everything it holds:
// the architectural state and the complete memory image.
func snapshotView(t *testing.T, twin *Machine, s *Snapshot) (MachineState, []mem.PageImage) {
	t.Helper()
	if err := twin.Restore(s); err != nil {
		t.Fatal(err)
	}
	return twin.ExportState(), twin.Phys.ExportPages()
}

// TestMachineRebaseMatchesFreshSnapshot is the machine-level bit-identity
// property of Rebase: seeded random rounds run a storing, RNG-drawing
// loop, write secure memory, perturb every exported machine field
// (page-table pages out of order and repeated), restore the golden and a
// foreign snapshot, import pages and take unrelated snapshots. Each
// Rebase of the golden folds exactly when the golden is still memory's
// baseline. After a fold the golden must hold the same machine fields and
// memory as a fresh Snapshot, restoring it after further execution must
// be a delta restore back to exactly the rebased state, and restoring
// either snapshot must export exactly the state exported when it was
// captured. An import must export exactly what was imported, page-table
// pages sorted and unique.
func TestMachineRebaseMatchesFreshSnapshot(t *testing.T) {
	prog := asm.New().
		Movw(R0, 0).
		MovImm32(R6, 0x8000_2000).
		Label("loop").
		AddI(R0, R0, 1).
		Mul(R4, R0, R0).
		AndI(R5, R0, 0xfff).
		LslI(R5, R5, 2).
		StrR(R4, R6, R5).
		RdSys(R7, SysRNG).
		B("loop")
	modes := []Mode{ModeUsr, ModeSvc, ModeAbt, ModeUnd, ModeIrq, ModeFiq, ModeMon}
	for _, seed := range []int64{1, 2, 3, 4} {
		r := rand.New(rand.NewSource(seed))
		m := newSmallMachine(t, prog)
		twin := newSmallMachine(t, nil)
		foreign := newSmallMachine(t, prog)
		foreign.Run(500)
		foreignSnap := foreign.Snapshot()
		l := m.Phys.Layout()

		m.Run(200)
		golden := m.Snapshot()
		baseline := true
		folds, refusals := 0, 0
		for round := 0; round < 120; round++ {
			switch r.Intn(11) {
			case 0, 1, 2:
				if tr := m.Run(int64(1 + r.Intn(400))); tr.Kind != TrapBudget {
					t.Fatalf("round %d: run stopped with %v", round, tr.Kind)
				}
			case 3:
				addr := l.SecureBase + uint32(r.Intn(int(l.SecureSize/4)))*4
				if err := m.Phys.Write(addr, r.Uint32(), mem.Secure); err != nil {
					t.Fatal(err)
				}
			case 4:
				// Perturb every field but R0–R7, the PC and the CPSR,
				// which keep the loop storing inside its window, and the
				// interrupt lines, which keep it from trapping.
				st := m.ExportState()
				for i := 8; i < len(st.R); i++ {
					st.R[i] = r.Uint32()
				}
				for mo := range st.SP {
					st.SP[mo], st.LR[mo] = r.Uint32(), r.Uint32()
					st.SPSR[mo] = PSR{Mode: modes[r.Intn(len(modes))], N: r.Intn(2) == 0, I: r.Intn(2) == 0}
				}
				st.TTBR0 = [2]uint32{r.Uint32() &^ 0x3fff, r.Uint32() &^ 0x3fff}
				st.TTBR1, st.VBAR, st.MVBAR = r.Uint32(), r.Uint32()&^31, r.Uint32()&^31
				st.PTPages = st.PTPages[:0]
				for range 1 + r.Intn(5) {
					pg := l.SecureBase + uint32(r.Intn(16))*mem.PageSize
					st.PTPages = append(st.PTPages, pg, pg)
				}
				st.Retired += uint64(r.Intn(1 << 20))
				st.Cycles += uint64(r.Intn(1 << 20))
				st.RNG = [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64() | 1}
				st.TLBConsistent = r.Intn(2) == 0
				if err := m.ImportState(st); err != nil {
					t.Fatal(err)
				}
				slices.Sort(st.PTPages)
				st.PTPages = slices.Compact(st.PTPages)
				if got := m.ExportState(); !reflect.DeepEqual(got, st) {
					t.Fatalf("seed %d round %d: export after import differs: %v", seed, round, got.Diff(st))
				}
			case 5:
				if err := m.Restore(golden); err != nil {
					t.Fatal(err)
				}
				baseline = true
			case 6:
				if err := m.Restore(foreignSnap); err != nil {
					t.Fatal(err)
				}
				baseline = false
			case 7:
				if err := m.Phys.ImportPages(m.Phys.ExportPages()); err != nil {
					t.Fatal(err)
				}
				baseline = false
			case 8:
				m.Snapshot()
				baseline = false
			default:
				before, _ := snapshotView(t, twin, golden)
				ok := m.Rebase(golden)
				if ok != baseline {
					t.Fatalf("seed %d round %d: Rebase = %v, golden is baseline = %v", seed, round, ok, baseline)
				}
				if !ok {
					refusals++
					if after, _ := snapshotView(t, twin, golden); !reflect.DeepEqual(after, before) {
						t.Fatalf("seed %d round %d: refused Rebase changed the golden: %v", seed, round, after.Diff(before))
					}
					continue
				}
				folds++
				want, wantPages := m.ExportState(), m.Phys.ExportPages()
				deltas := m.Phys.RestoreStats().DeltaRestores
				m.Run(int64(1 + r.Intn(400)))
				if err := m.Restore(golden); err != nil {
					t.Fatal(err)
				}
				if m.Phys.RestoreStats().DeltaRestores != deltas+1 {
					t.Fatalf("seed %d round %d: restore of a rebased golden was not a delta", seed, round)
				}
				if got := m.ExportState(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d: restore diverged from the rebased state: %v", seed, round, got.Diff(want))
				}
				if !reflect.DeepEqual(m.Phys.ExportPages(), wantPages) {
					t.Fatalf("seed %d round %d: restored memory diverged from the rebased state", seed, round)
				}
				fresh := m.Snapshot()
				baseline = false
				gotState, gotPages := snapshotView(t, twin, golden)
				freshState, freshPages := snapshotView(t, twin, fresh)
				if !reflect.DeepEqual(freshState, want) {
					t.Fatalf("seed %d round %d: restored fresh snapshot differs from the state it captured: %v", seed, round, freshState.Diff(want))
				}
				if d := gotState.Diff(freshState); len(d) > 0 {
					t.Fatalf("seed %d round %d: rebased golden differs from a fresh snapshot: %v", seed, round, d)
				}
				if !reflect.DeepEqual(gotPages, freshPages) {
					t.Fatalf("seed %d round %d: rebased golden memory differs from a fresh snapshot", seed, round)
				}
			}
		}
		if folds == 0 || refusals == 0 {
			t.Fatalf("seed %d: %d folds, %d refusals; the rounds must exercise both", seed, folds, refusals)
		}
	}
}
