package refine_test

import (
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/mem"
	"repro/internal/nwos"
	"repro/internal/refine"
)

func newChecked(t *testing.T) (*board.Platform, *refine.Checker, *nwos.OS) {
	t.Helper()
	plat, err := board.Boot(board.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	chk := refine.New(plat.Monitor)
	return plat, chk, nwos.New(plat.Machine, chk, plat.Monitor.NPages())
}

func TestChecksCountAndPass(t *testing.T) {
	_, chk, os := newChecked(t)
	img, err := kasm.ExitConst(9).Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := os.Enter(enc); err != nil {
		t.Fatal(err)
	}
	if chk.Calls < 6 {
		t.Fatalf("checker saw only %d calls", chk.Calls)
	}
	if chk.Failures != 0 {
		t.Fatalf("failures = %d", chk.Failures)
	}
}

// TestDetectsCorruptedConcreteState is the meta-test: if the concrete
// PageDB is corrupted (simulating a monitor bug), the next checked call
// must flag it — demonstrating the harness would have caught the class of
// bugs the paper's proof rules out.
func TestDetectsCorruptedConcreteState(t *testing.T) {
	plat, chk, os := newChecked(t)
	img, err := kasm.ExitConst(1).Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the addrspace's refcount word in secure RAM (addrspace page
	// payload offset 12 = refcount; page numbering is offset by the
	// monitor's reserved pages).
	base := plat.Machine.Phys.SecurePageBase(int(enc.AS) + 2)
	if err := plat.Machine.Phys.Write(base+12, 99, mem.Secure); err != nil {
		t.Fatal(err)
	}
	_, _, err = chk.SMC(kapi.SMCGetPhysPages)
	if err == nil {
		t.Fatal("checker missed a corrupted refcount")
	}
	if !strings.Contains(err.Error(), "invariants") {
		t.Fatalf("unexpected failure: %v", err)
	}
}

func TestOnFailureCollectsInsteadOfReturning(t *testing.T) {
	plat, chk, os := newChecked(t)
	img, _ := kasm.ExitConst(1).Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	var collected []error
	chk.OnFailure = func(e error) { collected = append(collected, e) }
	base := plat.Machine.Phys.SecurePageBase(int(enc.AS) + 2)
	plat.Machine.Phys.Write(base+12, 99, mem.Secure)
	if _, _, err := chk.SMC(kapi.SMCGetPhysPages); err != nil {
		t.Fatalf("OnFailure set but SMC returned error: %v", err)
	}
	if chk.Failures != 1 || len(collected) != 1 {
		t.Fatalf("failures=%d collected=%d", chk.Failures, len(collected))
	}
}

func TestMapSecureSnapshotSemantics(t *testing.T) {
	// The spec is checked against the contents of the source page *at
	// call time*; later OS writes to the staging page must not confuse
	// the checker (insecure memory is concurrently mutable, §6.1).
	_, chk, os := newChecked(t)
	asPg, _ := os.AllocPage()
	l1Pg, _ := os.AllocPage()
	if _, _, err := chk.SMC(kapi.SMCInitAddrspace, uint32(asPg), uint32(l1Pg)); err != nil {
		t.Fatal(err)
	}
	l2Pg, _ := os.AllocPage()
	if _, _, err := chk.SMC(kapi.SMCInitL2PTable, uint32(asPg), uint32(l2Pg), 0); err != nil {
		t.Fatal(err)
	}
	stage, _ := os.AllocInsecurePage()
	os.WriteInsecure(stage, []uint32{0x1111})
	dataPg, _ := os.AllocPage()
	m := kapi.NewMapping(0x1000, true, false)
	if _, _, err := chk.SMC(kapi.SMCMapSecure, uint32(asPg), uint32(dataPg), uint32(m), stage); err != nil {
		t.Fatal(err)
	}
	// Mutate the source afterwards; subsequent checked calls must pass.
	os.WriteInsecure(stage, []uint32{0x2222})
	if _, _, err := chk.SMC(kapi.SMCFinalise, uint32(asPg)); err != nil {
		t.Fatal(err)
	}
}

func TestEnterRelationCheckedEndToEnd(t *testing.T) {
	plat, chk, os := newChecked(t)
	img, _ := kasm.DynAlloc().Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	// A dynamic-memory run exercises the SVC-replay path of CheckEnter.
	e, v, err := chk.SMC(kapi.SMCEnter, uint32(enc.Thread), uint32(enc.Spares[0]), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess || v != 0xfeed {
		t.Fatalf("enter = (%v, %#x)", e, v)
	}
	// Interrupted runs exercise the context-save branch of the relation.
	img2, _ := kasm.CountTo().Image()
	enc2, err := os.BuildEnclave(img2)
	if err != nil {
		t.Fatal(err)
	}
	plat.Machine.ScheduleIRQ(500)
	e, _, err = chk.SMC(kapi.SMCEnter, uint32(enc2.Thread), 1_000_000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInterrupted {
		t.Fatalf("expected interruption: %v", e)
	}
	if _, _, err := chk.SMC(kapi.SMCResume, uint32(enc2.Thread)); err != nil {
		t.Fatal(err)
	}
	if chk.Failures != 0 {
		t.Fatalf("failures = %d", chk.Failures)
	}
}

func TestSpecParamsMatchPlatform(t *testing.T) {
	plat, err := board.Boot(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := refine.SpecParams(plat.Monitor)
	l := plat.Machine.Phys.Layout()
	if p.NPages != plat.Monitor.NPages() {
		t.Fatal("NPages mismatch")
	}
	if p.InsecureBase != l.InsecureBase || p.InsecureSize != l.InsecureSize {
		t.Fatal("insecure region mismatch")
	}
	if p.AttestKey != plat.Monitor.AttestKey() {
		t.Fatal("attest key mismatch")
	}
	if p.StaticProfile != plat.Monitor.StaticProfile() {
		t.Fatal("profile mismatch")
	}
	// The replay Rand is empty when no SMC has drawn randomness: it
	// returns zero rather than panicking.
	if p.Rand() != 0 {
		t.Fatal("empty RNG replay should return 0")
	}
}
