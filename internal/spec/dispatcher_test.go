package spec

import (
	"testing"

	"repro/internal/kapi"
	"repro/internal/pagedb"
)

func TestSvcSetFaultHandler(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	nd, e := SvcSetFaultHandler(p, d, 4, 0x2000)
	mustOK(t, "SetFaultHandler", e)
	if nd.Get(4).Thread.Handler != 0x2000 {
		t.Fatal("handler not recorded")
	}
	// Out-of-space address rejected.
	if _, e := SvcSetFaultHandler(p, d, 4, 1<<30); e != kapi.ErrInvalidArg {
		t.Fatalf("handler beyond 1GB: %v", e)
	}
	// Unregistering with 0.
	nd2, e := SvcSetFaultHandler(p, nd, 4, 0)
	mustOK(t, "unregister", e)
	if nd2.Get(4).Thread.Handler != 0 {
		t.Fatal("handler not cleared")
	}
}

func TestSvcFaultReturn(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	// Outside a handler: rejected.
	if _, e := SvcFaultReturn(p, d, 4); e != kapi.ErrInvalidArg {
		t.Fatalf("stray FaultReturn: %v", e)
	}
	d.Get(4).Thread.InHandler = true
	nd, e := SvcFaultReturn(p, d, 4)
	mustOK(t, "FaultReturn", e)
	if nd.Get(4).Thread.InHandler {
		t.Fatal("InHandler not cleared")
	}
}

func TestCheckEnterFaultHandledReplay(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)

	handlerVA := uint32(0x40)
	after := d.Clone()
	afterTh := after.Get(4).Thread
	afterTh.Handler = handlerVA
	afterTh.Ctx = pagedb.UserCtx{PC: 0x1008} // saved at the fault (havoc)
	after.Get(3).Data.Contents[1] = 0x99     // page 3 is rw-mapped

	trace := []kapi.ExecEvent{
		{Kind: kapi.EventSVC, Call: kapi.SVCSetFaultHandler, Args: [8]uint32{handlerVA}, Res: kapi.ErrSuccess},
		{Kind: kapi.EventFaultHandled, FaultType: kapi.ExitDataAbort},
		{Kind: kapi.EventSVC, Call: kapi.SVCFaultReturn, Res: kapi.ErrSuccess},
		{Kind: kapi.EventExit, ExitVal: 5},
	}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 5); err != nil {
		t.Fatalf("fault-handled replay: %v", err)
	}

	// A fault-handled event without a registered handler must fail the
	// relation.
	badTrace := []kapi.ExecEvent{
		{Kind: kapi.EventFaultHandled, FaultType: kapi.ExitDataAbort},
		{Kind: kapi.EventExit, ExitVal: 5},
	}
	if err := CheckEnter(p, d, after, 4, false, badTrace, kapi.ErrSuccess, 5); err == nil {
		t.Fatal("accepted fault-handled without handler")
	}

	// A nested fault-handled event (already in handler) must fail.
	nested := []kapi.ExecEvent{
		{Kind: kapi.EventSVC, Call: kapi.SVCSetFaultHandler, Args: [8]uint32{handlerVA}, Res: kapi.ErrSuccess},
		{Kind: kapi.EventFaultHandled, FaultType: kapi.ExitDataAbort},
		{Kind: kapi.EventFaultHandled, FaultType: kapi.ExitDataAbort},
		{Kind: kapi.EventExit, ExitVal: 5},
	}
	if err := CheckEnter(p, d, after, 4, false, nested, kapi.ErrSuccess, 5); err == nil {
		t.Fatal("accepted nested fault-handled events")
	}
}

func TestCheckEnterExitInsideHandler(t *testing.T) {
	// An enclave may Exit from within its handler; the thread then stays
	// InHandler in the final state — and the relation must demand it.
	p := testParams()
	d := buildEnclave(t, p, true)
	handlerVA := uint32(0x40)
	after := d.Clone()
	afterTh := after.Get(4).Thread
	afterTh.Handler = handlerVA
	afterTh.InHandler = true
	trace := []kapi.ExecEvent{
		{Kind: kapi.EventSVC, Call: kapi.SVCSetFaultHandler, Args: [8]uint32{handlerVA}, Res: kapi.ErrSuccess},
		{Kind: kapi.EventFaultHandled, FaultType: kapi.ExitUndef},
		{Kind: kapi.EventExit, ExitVal: 1},
	}
	if err := CheckEnter(p, d, after, 4, false, trace, kapi.ErrSuccess, 1); err != nil {
		t.Fatalf("exit inside handler: %v", err)
	}
	// Claiming InHandler=false would diverge.
	bad := after.Clone()
	bad.Get(4).Thread.InHandler = false
	if err := CheckEnter(p, d, bad, 4, false, trace, kapi.ErrSuccess, 1); err == nil {
		t.Fatal("accepted wrong InHandler state")
	}
}
