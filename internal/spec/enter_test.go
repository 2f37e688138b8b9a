package spec

import (
	"math/rand"
	"testing"

	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/pagedb"
)

func TestValidateEnterResume(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	if e := ValidateEnter(d, 4); e != kapi.ErrSuccess {
		t.Fatalf("enter valid thread: %v", e)
	}
	if e := ValidateEnter(d, 99); e != kapi.ErrInvalidPageNo {
		t.Fatalf("enter bad page: %v", e)
	}
	if e := ValidateEnter(d, 3); e != kapi.ErrNotThread {
		t.Fatalf("enter data page: %v", e)
	}
	if e := ValidateResume(d, 4); e != kapi.ErrNotEntered {
		t.Fatalf("resume unentered: %v", e)
	}
	d.Get(4).Thread.Entered = true
	if e := ValidateEnter(d, 4); e != kapi.ErrAlreadyEntered {
		t.Fatalf("enter entered thread: %v", e)
	}
	if e := ValidateResume(d, 4); e != kapi.ErrSuccess {
		t.Fatalf("resume entered: %v", e)
	}
	d.Get(4).Thread.Entered = false
	dn := buildEnclave(t, p, false)
	if e := ValidateEnter(dn, 4); e != kapi.ErrNotFinal {
		t.Fatalf("enter non-final enclave: %v", e)
	}
	ds, _ := Stop(p, d, 0)
	if e := ValidateEnter(ds, 4); e != kapi.ErrNotFinal {
		t.Fatalf("enter stopped enclave: %v", e)
	}
}

func TestCheckEnterRejectedCall(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, false) // not final
	// A rejected Enter must return the spec's error and change nothing.
	if err := CheckEnter(p, d, d.Clone(), 4, false, nil, kapi.ErrNotFinal, 0); err != nil {
		t.Fatalf("relation rejected correct behaviour: %v", err)
	}
	// Wrong error code fails the relation.
	if err := CheckEnter(p, d, d.Clone(), 4, false, nil, kapi.ErrSuccess, 0); err == nil {
		t.Fatal("relation accepted wrong error code")
	}
	// State change on a rejected call fails the relation.
	d2 := d.Clone()
	d2.Get(3).Data.Contents[0] = 0xbad
	if err := CheckEnter(p, d, d2, 4, false, nil, kapi.ErrNotFinal, 0); err == nil {
		t.Fatal("relation accepted state change on rejected call")
	}
}

func TestCheckEnterExitPath(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	after := d.Clone()
	after.Get(3).Data.Contents[5] = 0x777 // page 3 is mapped rw: legal havoc
	trace := []kapi.ExecEvent{{Kind: kapi.EventExit, ExitVal: 42}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 42); err != nil {
		t.Fatalf("exit path: %v", err)
	}
	// Wrong exit value.
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 43); err == nil {
		t.Fatal("accepted wrong exit value")
	}
	// Thread illegally marked entered after Exit.
	bad := after.Clone()
	bad.Get(4).Thread.Entered = true
	if err := CheckEnter(p, d, bad, 4, false, trace, kapi.ErrSuccess, 42); err == nil {
		t.Fatal("accepted entered thread after exit")
	}
}

func TestCheckEnterInterruptPath(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	after := d.Clone()
	th := after.Get(4).Thread
	th.Entered = true
	th.Ctx = pagedb.UserCtx{PC: 0x1010, SP: 0x2000}
	th.Ctx.R[0] = 7
	trace := []kapi.ExecEvent{{Kind: kapi.EventIRQ}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrInterrupted, kapi.ExitIRQ); err != nil {
		t.Fatalf("irq path: %v", err)
	}
	// Forgetting to mark entered fails.
	bad := after.Clone()
	bad.Get(4).Thread.Entered = false
	if err := CheckEnter(p, d, bad, 4, false, trace, kapi.ErrInterrupted, kapi.ExitIRQ); err == nil {
		t.Fatal("accepted unsuspended thread after IRQ")
	}
	// Declassification: returning anything but the exception type fails.
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrInterrupted, 0xdead); err == nil {
		t.Fatal("accepted leaked value in interrupt result")
	}
}

func TestCheckEnterFaultPath(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	after := d.Clone()
	trace := []kapi.ExecEvent{{Kind: kapi.EventFault, FaultType: kapi.ExitDataAbort}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrFault, kapi.ExitDataAbort); err != nil {
		t.Fatalf("fault path: %v", err)
	}
}

func TestCheckEnterReplaysSVCs(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	d, e := AllocSpare(p, d, 0, 7)
	mustOK(t, "AllocSpare", e)

	// Enclave: MapData(7, va 0x3000 rw) then Exit(1).
	m := kapi.NewMapping(0x3000, true, false)
	after, e := SvcMapData(p, d, 4, 7, m)
	mustOK(t, "MapData", e)
	after = after.Clone()
	after.Get(7).Data.Contents[0] = 0x55 // enclave wrote to the new page
	trace := []kapi.ExecEvent{
		{Kind: kapi.EventSVC, Call: kapi.SVCMapData, Args: [8]uint32{7, uint32(m)}, Res: kapi.ErrSuccess},
		{Kind: kapi.EventExit, ExitVal: 1},
	}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 1); err != nil {
		t.Fatalf("svc replay: %v", err)
	}
	// If the monitor had returned a different SVC result than the spec
	// computes, the relation must fail.
	badTrace := []kapi.ExecEvent{
		{Kind: kapi.EventSVC, Call: kapi.SVCMapData, Args: [8]uint32{7, uint32(m)}, Res: kapi.ErrNotSpare},
		{Kind: kapi.EventExit, ExitVal: 1},
	}
	if err := CheckEnter(p, d, after, 4, false, badTrace, kapi.ErrSuccess, 1); err == nil {
		t.Fatal("accepted diverging SVC result")
	}
}

func TestCheckEnterRejectsForeignPageModification(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	// Second enclave's data page must be untouchable.
	d, e := InitAddrspace(p, d, 10, 11)
	mustOK(t, "second addrspace", e)
	d, e = InitL2PTable(p, d, 10, 12, 0)
	mustOK(t, "second l2", e)
	var c [mem.PageWords]uint32
	d, e = MapSecure(p, d, 10, 13, kapi.NewMapping(0x1000, true, false), p.InsecureBase, &c)
	mustOK(t, "second data", e)

	after := d.Clone()
	after.Get(13).Data.Contents[0] = 0xe71
	trace := []kapi.ExecEvent{{Kind: kapi.EventExit, ExitVal: 0}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 0); err == nil {
		t.Fatal("accepted modification of another enclave's page")
	}
}

func TestCheckEnterRejectsReadOnlyPageModification(t *testing.T) {
	p := testParams()
	d := pagedb.New(p.NPages)
	d, _ = InitAddrspace(p, d, 0, 1)
	d, _ = InitL2PTable(p, d, 0, 2, 0)
	var c [mem.PageWords]uint32
	d, e := MapSecure(p, d, 0, 3, kapi.NewMapping(0x1000, false, true), p.InsecureBase, &c) // X-only
	mustOK(t, "MapSecure ro", e)
	d, e = InitThread(p, d, 0, 4, 0x1000)
	mustOK(t, "InitThread", e)
	d, e = Finalise(p, d, 0)
	mustOK(t, "Finalise", e)

	after := d.Clone()
	after.Get(3).Data.Contents[9] = 1 // not writable-mapped: illegal
	trace := []kapi.ExecEvent{{Kind: kapi.EventExit, ExitVal: 0}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 0); err == nil {
		t.Fatal("accepted modification of a read-only page")
	}
}

func TestCheckEnterRejectsMeasurementChange(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	after := d.Clone()
	after.Addrspace(0).Measured[0] ^= 1
	trace := []kapi.ExecEvent{{Kind: kapi.EventExit, ExitVal: 0}}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 0); err == nil {
		t.Fatal("accepted measurement change during execution")
	}
}

// TestSMCTraceInvariantPreservation is the runtime analogue of the paper's
// "we prove that each SMC and SVC preserves the PageDB invariants" (§5.2):
// random adversarial SMC traces, applied through the specification, must
// keep Validate() green after every step.
func TestSMCTraceInvariantPreservation(t *testing.T) {
	p := testParams()
	rnd := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 50; trial++ {
		d := pagedb.New(p.NPages)
		for step := 0; step < 120; step++ {
			req := randomSMC(rnd, p)
			nd, _, _ := ApplySMC(p, d, req)
			if err := nd.Validate(); err != nil {
				t.Fatalf("trial %d step %d: call %d args %v broke invariants: %v",
					trial, step, req.Call, req.Args, err)
			}
			d = nd
		}
	}
}

// randomSMC draws a plausible-but-unchecked SMC request: small page
// numbers (to collide often), occasionally wild arguments.
func randomSMC(rnd *rand.Rand, p Params) SMCRequest {
	calls := []uint32{
		kapi.SMCGetPhysPages, kapi.SMCInitAddrspace, kapi.SMCInitThread,
		kapi.SMCInitL2PTable, kapi.SMCAllocSpare, kapi.SMCMapSecure,
		kapi.SMCMapInsecure, kapi.SMCFinalise, kapi.SMCStop, kapi.SMCRemove,
	}
	req := SMCRequest{Call: calls[rnd.Intn(len(calls))]}
	pg := func() uint32 {
		if rnd.Intn(10) == 0 {
			return rnd.Uint32() // wild
		}
		return uint32(rnd.Intn(p.NPages))
	}
	va := func() uint32 {
		base := uint32(rnd.Intn(8)) * 0x1000
		return uint32(kapi.NewMapping(base, rnd.Intn(2) == 0, rnd.Intn(2) == 0))
	}
	insec := func() uint32 {
		if rnd.Intn(8) == 0 {
			return rnd.Uint32() &^ 0xfff
		}
		return p.InsecureBase + uint32(rnd.Intn(16))*0x1000
	}
	switch req.Call {
	case kapi.SMCInitAddrspace:
		req.Args = [4]uint32{pg(), pg()}
	case kapi.SMCInitThread:
		req.Args = [4]uint32{pg(), pg(), rnd.Uint32() % (1 << 30)}
	case kapi.SMCInitL2PTable:
		req.Args = [4]uint32{pg(), pg(), uint32(rnd.Intn(300))}
	case kapi.SMCAllocSpare:
		req.Args = [4]uint32{pg(), pg()}
	case kapi.SMCMapSecure:
		var contents [mem.PageWords]uint32
		contents[0] = rnd.Uint32()
		req.Contents = &contents
		req.Args = [4]uint32{pg(), pg(), va(), insec()}
	case kapi.SMCMapInsecure:
		req.Args = [4]uint32{pg(), va(), insec()}
	case kapi.SMCFinalise, kapi.SMCStop, kapi.SMCRemove:
		req.Args = [4]uint32{pg()}
	}
	return req
}
