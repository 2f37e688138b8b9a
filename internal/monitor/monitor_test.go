package monitor_test

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/nwos"
	"repro/internal/pagedb"
	"repro/internal/refine"
)

// world boots a platform and wires the OS model through the refinement
// checker, so every SMC in these tests is also checked against the spec.
type world struct {
	plat *board.Platform
	chk  *refine.Checker
	os   *nwos.OS
}

func newWorld(t *testing.T, cfg board.Config) *world {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	plat, err := board.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := refine.New(plat.Monitor)
	return &world{
		plat: plat,
		chk:  chk,
		os:   nwos.New(plat.Machine, chk, plat.Monitor.NPages()),
	}
}

func (w *world) build(t *testing.T, g kasm.Guest) *nwos.Enclave {
	t.Helper()
	img, err := g.Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := w.os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestGetPhysPages(t *testing.T) {
	w := newWorld(t, board.Config{})
	e, v, err := w.chk.SMC(kapi.SMCGetPhysPages)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess {
		t.Fatalf("err = %v", e)
	}
	// 1 MB secure region = 256 pages, minus 2 reserved for the monitor.
	if v != 254 {
		t.Fatalf("GetPhysPages = %d, want 254", v)
	}
}

func TestEnclaveExitConst(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.ExitConst(42))
	e, v, err := w.os.Enter(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess || v != 42 {
		t.Fatalf("Enter = (%v, %d), want (success, 42)", e, v)
	}
}

func TestEnclaveArguments(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.AddArgs())
	e, v, err := w.os.Enter(enc, 1000, 337)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess || v != 1337 {
		t.Fatalf("Enter = (%v, %d), want (success, 1337)", e, v)
	}
}

func TestEnclaveDataPage(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.StoreLoad())
	e, v, err := w.os.Enter(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess || v != 0xbeef {
		t.Fatalf("Enter = (%v, %#x)", e, v)
	}
}

func TestEnclaveReentry(t *testing.T) {
	// After Exit, the thread may be re-entered (§4).
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.AddArgs())
	for i := uint32(0); i < 5; i++ {
		e, v, err := w.os.Enter(enc, i, 10)
		if err != nil {
			t.Fatal(err)
		}
		if e != kapi.ErrSuccess || v != i+10 {
			t.Fatalf("iteration %d: (%v, %d)", i, e, v)
		}
	}
}

func TestInterruptSuspendResume(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.CountTo())
	const target = 40_000
	w.plat.Machine.ScheduleIRQ(10_000) // interrupt mid-loop
	e, v, err := w.os.Enter(enc, target)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInterrupted {
		t.Fatalf("Enter = (%v, %d), want interrupted", e, v)
	}
	// Declassification: the OS learns only the exception type.
	if v != kapi.ExitIRQ {
		t.Fatalf("interrupt leaked value %#x", v)
	}
	// The suspended thread may not be re-entered...
	e, _, err = w.os.Enter(enc, target)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrAlreadyEntered {
		t.Fatalf("re-enter suspended thread: %v", e)
	}
	// ...but resumes to completion.
	e, v, err = w.os.Resume(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess || v != target {
		t.Fatalf("Resume = (%v, %d), want (success, %d)", e, v, target)
	}
	// Resume of a non-suspended thread fails.
	e, _, err = w.os.Resume(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrNotEntered {
		t.Fatalf("resume completed thread: %v", e)
	}
}

func TestMultipleInterruptsAcrossResume(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.CountTo())
	const target = 100_000
	w.plat.Machine.ScheduleIRQ(7_000)
	e, v, err := w.os.Enter(enc, target)
	if err != nil {
		t.Fatal(err)
	}
	interrupts := 0
	for e == kapi.ErrInterrupted {
		interrupts++
		if interrupts > 100 {
			t.Fatal("livelock")
		}
		w.plat.Machine.ScheduleIRQ(7_000)
		e, v, err = w.os.Resume(enc)
		if err != nil {
			t.Fatal(err)
		}
	}
	if e != kapi.ErrSuccess || v != target {
		t.Fatalf("final = (%v, %d) after %d interrupts", e, v, interrupts)
	}
	if interrupts < 2 {
		t.Fatalf("expected multiple suspensions, got %d", interrupts)
	}
}

func TestEnclaveFaults(t *testing.T) {
	cases := []struct {
		name string
		kind kasm.FaultKind
		exit uint32
	}{
		{"write-ro", kasm.FaultWriteRO, kapi.ExitDataAbort},
		{"unmapped", kasm.FaultUnmapped, kapi.ExitDataAbort},
		{"exec-nx", kasm.FaultExecNX, kapi.ExitPrefAbort},
		{"hlt", kasm.FaultUndefInsn, kapi.ExitUndef},
		{"privileged", kasm.FaultPrivileged, kapi.ExitUndef},
		{"beyond-va", kasm.FaultBeyondVA, kapi.ExitDataAbort},
		{"smc", kasm.FaultSMC, kapi.ExitUndef},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, board.Config{})
			enc := w.build(t, kasm.Faulter(c.kind))
			e, v, err := w.os.Enter(enc)
			if err != nil {
				t.Fatal(err)
			}
			if e != kapi.ErrFault {
				t.Fatalf("Enter = (%v, %d), want fault", e, v)
			}
			// Only the exception type is released — never the secret in
			// R7, never a fault address.
			if v != c.exit {
				t.Fatalf("fault leaked %#x, want exit type %d", v, c.exit)
			}
			// The faulted thread is re-enterable.
			e, _, err = w.os.Enter(enc)
			if err != nil {
				t.Fatal(err)
			}
			if e != kapi.ErrFault {
				t.Fatalf("re-enter after fault: %v", e)
			}
		})
	}
}

func TestFaultDoesNotLeakRegisters(t *testing.T) {
	// The OS's register view after a faulting enclave must contain
	// nothing of the enclave's state (the secret 0x5ec2e7 was in R7).
	w := newWorld(t, board.Config{})
	m := w.plat.Machine
	for i := 4; i <= 11; i++ {
		m.SetReg(arm.Reg(i), 0x05aa0000+uint32(i))
	}
	enc := w.build(t, kasm.Faulter(kasm.FaultWriteRO))
	// Reset marker registers right before entry (BuildEnclave clobbered
	// volatiles through its own SMCs, but non-volatiles survive).
	for i := 5; i <= 11; i++ {
		m.SetReg(arm.Reg(i), 0x05aa0000+uint32(i))
	}
	if _, _, err := w.os.Enter(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 12; i++ {
		got := m.Reg(arm.Reg(i))
		if got == 0x5ec2e7 {
			t.Fatalf("enclave secret leaked in R%d", i)
		}
		if i >= 5 && i <= 11 && got != 0x05aa0000+uint32(i) {
			t.Fatalf("non-volatile R%d not preserved: %#x", i, got)
		}
	}
}

func TestSMCRegisterDiscipline(t *testing.T) {
	// §5.2: "non-volatile registers are preserved, other non-return
	// registers are zeroed".
	w := newWorld(t, board.Config{})
	m := w.plat.Machine
	for i := 2; i <= 12; i++ {
		m.SetReg(arm.Reg(i), 0x11110000+uint32(i))
	}
	e, _, err := w.chk.SMC(kapi.SMCGetPhysPages)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	for _, r := range []arm.Reg{arm.R2, arm.R3, arm.R4, arm.R12} {
		if m.Reg(r) != 0 {
			t.Fatalf("volatile register %v not zeroed: %#x", r, m.Reg(r))
		}
	}
	for i := 5; i <= 11; i++ {
		if m.Reg(arm.Reg(i)) != 0x11110000+uint32(i) {
			t.Fatalf("non-volatile R%d clobbered: %#x", i, m.Reg(arm.Reg(i)))
		}
	}
}

func TestGetRandomSVC(t *testing.T) {
	w := newWorld(t, board.Config{Seed: 99})
	enc := w.build(t, kasm.GetRandom())
	e, v1, err := w.os.Enter(enc)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	e, v2, err := w.os.Enter(enc)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	if v1 == v2 {
		t.Fatalf("consecutive GetRandom returned identical words %#x", v1)
	}
}

func TestAttestVerifyBetweenEnclaves(t *testing.T) {
	w := newWorld(t, board.Config{})

	// Enclave A attests and writes the MAC to its shared page.
	attestor := w.build(t, kasm.AttestToShared())
	e, v, err := w.os.Enter(attestor)
	if err != nil || e != kapi.ErrSuccess || v != 1 {
		t.Fatalf("attestor: %v %v %d", err, e, v)
	}
	mac, err := w.os.ReadInsecure(attestor.SharedPA[0], 8)
	if err != nil {
		t.Fatal(err)
	}

	// The OS knows the attestor's measurement (it can recompute it from
	// the image; here we read it from the decoded PageDB, which contains
	// nothing secret — measurements are public by design).
	db, err := w.plat.Monitor.DecodePageDB()
	if err != nil {
		t.Fatal(err)
	}
	measured := db.Addrspace(attestor.AS).Measured

	// Enclave B verifies (data, measurement, mac) from its shared page.
	verifier := w.build(t, kasm.VerifyFromShared())
	payload := make([]uint32, 24)
	for i := 0; i < 8; i++ {
		payload[i] = uint32(i + 1) // the data words AttestToShared used
		payload[8+i] = measured[i]
		payload[16+i] = mac[i]
	}
	if err := w.os.WriteInsecure(verifier.SharedPA[0], payload); err != nil {
		t.Fatal(err)
	}
	e, v, err = w.os.Enter(verifier)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	if v != 1 {
		t.Fatal("valid attestation rejected by verifier enclave")
	}

	// A forged MAC must be rejected.
	payload[16] ^= 1
	if err := w.os.WriteInsecure(verifier.SharedPA[0], payload); err != nil {
		t.Fatal(err)
	}
	e, v, err = w.os.Enter(verifier)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	if v != 0 {
		t.Fatal("forged attestation accepted")
	}
}

func TestDynamicAllocation(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.DynAlloc())
	e, v, err := w.os.Enter(enc, uint32(enc.Spares[0]))
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	if v != 0xfeed {
		t.Fatalf("dynamic page round trip = %#x", v)
	}
	// The spare is now a data page: the OS's Remove must fail — the §6.2
	// declassified side channel.
	e, _, err = w.chk.SMC(kapi.SMCRemove, uint32(enc.Spares[0]))
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrNotStopped {
		t.Fatalf("Remove of consumed spare: %v, want not-stopped", e)
	}
}

func TestDynamicUnmapFaultsAfterUnmap(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.DynUnmap())
	e, v, err := w.os.Enter(enc, uint32(enc.Spares[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The guest's final load of the unmapped VA must data-abort, which
	// also proves the monitor flushed the TLB after UnmapData.
	if e != kapi.ErrFault || v != kapi.ExitDataAbort {
		t.Fatalf("after unmap: (%v, %d), want (fault, data-abort)", e, v)
	}
	// And the spare page is reclaimable by the OS again.
	e, _, err = w.chk.SMC(kapi.SMCRemove, uint32(enc.Spares[0]))
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrSuccess {
		t.Fatalf("Remove of freed spare: %v", e)
	}
}

func TestSharedMemoryEcho(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.SharedEcho())
	if err := w.os.WriteInsecure(enc.SharedPA[0], []uint32{100}); err != nil {
		t.Fatal(err)
	}
	e, v, err := w.os.Enter(enc, 23)
	if err != nil || e != kapi.ErrSuccess {
		t.Fatal(err, e)
	}
	if v != 123 {
		t.Fatalf("echo = %d", v)
	}
	out, err := w.os.ReadInsecure(enc.SharedPA[0]+4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 123 {
		t.Fatalf("shared word = %d", out[0])
	}
}

func TestEnterValidationErrors(t *testing.T) {
	w := newWorld(t, board.Config{})
	// Thread of a non-finalised enclave.
	img, _ := kasm.ExitConst(1).Image()
	img2 := img
	img2.Spares = 0
	// Build manually without finalising.
	asPg, _ := w.os.AllocPage()
	l1Pg, _ := w.os.AllocPage()
	if _, _, err := w.chk.SMC(kapi.SMCInitAddrspace, uint32(asPg), uint32(l1Pg)); err != nil {
		t.Fatal(err)
	}
	thrPg, _ := w.os.AllocPage()
	if _, _, err := w.chk.SMC(kapi.SMCInitThread, uint32(asPg), uint32(thrPg), 0); err != nil {
		t.Fatal(err)
	}
	e, _, err := w.chk.SMC(kapi.SMCEnter, uint32(thrPg), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrNotFinal {
		t.Fatalf("enter unfinalised: %v", e)
	}
	// Enter of a non-thread page.
	e, _, err = w.chk.SMC(kapi.SMCEnter, uint32(asPg), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrNotThread {
		t.Fatalf("enter addrspace: %v", e)
	}
	// Enter of an out-of-range page.
	e, _, err = w.chk.SMC(kapi.SMCEnter, 9999, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInvalidPageNo {
		t.Fatalf("enter bad page: %v", e)
	}
	// Enter of a stopped enclave.
	if _, _, err := w.chk.SMC(kapi.SMCFinalise, uint32(asPg)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.chk.SMC(kapi.SMCStop, uint32(asPg)); err != nil {
		t.Fatal(err)
	}
	e, _, err = w.chk.SMC(kapi.SMCEnter, uint32(thrPg), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrNotFinal {
		t.Fatalf("enter stopped enclave: %v", e)
	}
}

func TestDestroyAndReuse(t *testing.T) {
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.ExitConst(7))
	if _, _, err := w.os.Enter(enc); err != nil {
		t.Fatal(err)
	}
	if err := w.os.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	// All pages free again: build and run a second enclave on them.
	enc2 := w.build(t, kasm.ExitConst(9))
	e, v, err := w.os.Enter(enc2)
	if err != nil || e != kapi.ErrSuccess || v != 9 {
		t.Fatalf("second enclave: %v %v %d", err, e, v)
	}
}

func TestScrubOnRemove(t *testing.T) {
	// Freed pages must not leak prior enclave contents to the next owner.
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.StoreLoad())
	if _, _, err := w.os.Enter(enc); err != nil {
		t.Fatal(err)
	}
	dataPg := enc.Data[len(enc.Data)-1]
	if err := w.os.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	base := w.plat.Machine.Phys.SecurePageBase(int(dataPg) + 2) // + reserved
	for off := uint32(0); off < mem.PageSize; off += 4 {
		v, err := w.plat.Machine.Phys.Read(base+off, mem.Secure)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("freed page retains %#x at offset %d", v, off)
		}
	}
}

func TestAliasedInitAddrspaceRejected(t *testing.T) {
	// The §9.1 regression, end to end through the concrete monitor.
	w := newWorld(t, board.Config{})
	e, _, err := w.chk.SMC(kapi.SMCInitAddrspace, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInvalidArg {
		t.Fatalf("aliased InitAddrspace: %v", e)
	}
	db, err := w.plat.Monitor.DecodePageDB()
	if err != nil {
		t.Fatal(err)
	}
	if !db.IsFree(pagedb.PageNr(5)) {
		t.Fatal("rejected call allocated the page anyway")
	}
}

func TestMapSecureRejectsSecureSource(t *testing.T) {
	// The OS may not use secure RAM as a MapSecure source (the §9.1
	// monitor-alias lesson).
	w := newWorld(t, board.Config{})
	asPg, _ := w.os.AllocPage()
	l1Pg, _ := w.os.AllocPage()
	w.chk.SMC(kapi.SMCInitAddrspace, uint32(asPg), uint32(l1Pg))
	l2Pg, _ := w.os.AllocPage()
	w.chk.SMC(kapi.SMCInitL2PTable, uint32(asPg), uint32(l2Pg), 0)
	dataPg, _ := w.os.AllocPage()
	m := kapi.NewMapping(0x1000, true, false)
	secureAddr := w.plat.Machine.Phys.Layout().SecureBase
	e, _, err := w.chk.SMC(kapi.SMCMapSecure, uint32(asPg), uint32(dataPg), uint32(m), secureAddr)
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInsecureInvalid {
		t.Fatalf("MapSecure from secure RAM: %v", e)
	}
}

func TestStaticProfile(t *testing.T) {
	w := newWorld(t, board.Config{Monitor: monitor.Config{StaticProfile: true}})
	// Building a plain enclave works under the SGXv1 profile.
	enc := w.build(t, kasm.ExitConst(3))
	e, v, err := w.os.Enter(enc)
	if err != nil || e != kapi.ErrSuccess || v != 3 {
		t.Fatalf("static profile enclave: %v %v %d", err, e, v)
	}
	// AllocSpare is absent.
	pg, _ := w.os.AllocPage()
	e, _, err = w.chk.SMC(kapi.SMCAllocSpare, uint32(enc.AS), uint32(pg))
	if err != nil {
		t.Fatal(err)
	}
	if e != kapi.ErrInvalidArg {
		t.Fatalf("AllocSpare under static profile: %v", e)
	}
}

func TestExecutionTraceRecording(t *testing.T) {
	// The execution trace feeding the Enter/Resume relation records
	// exactly what happened: SVCs in order, then the terminal event.
	w := newWorld(t, board.Config{})
	enc := w.build(t, kasm.DynAlloc())
	if _, _, err := w.os.Enter(enc, uint32(enc.Spares[0])); err != nil {
		t.Fatal(err)
	}
	trace := w.plat.Monitor.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace length = %d, want 2 (MapData, Exit)", len(trace))
	}
	if trace[0].Kind != kapi.EventSVC || trace[0].Call != kapi.SVCMapData {
		t.Fatalf("event 0 = %+v", trace[0])
	}
	if trace[0].Args[0] != uint32(enc.Spares[0]) {
		t.Fatalf("MapData arg recorded as %d", trace[0].Args[0])
	}
	if trace[0].Res != kapi.ErrSuccess {
		t.Fatalf("MapData result recorded as %v", trace[0].Res)
	}
	if trace[1].Kind != kapi.EventExit || trace[1].ExitVal != 0xfeed {
		t.Fatalf("terminal = %+v", trace[1])
	}
	// Faults record the type.
	f := w.build(t, kasm.Faulter(kasm.FaultWriteRO))
	if _, _, err := w.os.Enter(f); err != nil {
		t.Fatal(err)
	}
	trace = w.plat.Monitor.Trace()
	if len(trace) != 1 || trace[0].Kind != kapi.EventFault || trace[0].FaultType != kapi.ExitDataAbort {
		t.Fatalf("fault trace = %+v", trace)
	}
	// A plain non-exec SMC clears the trace.
	if _, _, err := w.chk.SMC(kapi.SMCGetPhysPages); err != nil {
		t.Fatal(err)
	}
	if len(w.plat.Monitor.Trace()) != 0 {
		t.Fatal("trace not cleared by a non-exec SMC")
	}
}
