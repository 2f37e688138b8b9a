package spec

import (
	"fmt"

	"repro/internal/kapi"
	"repro/internal/pagedb"
)

// Enter and Resume are specified as predicates relating the machine/PageDB
// states before and after the call, because they involve user-mode
// execution, which the specification treats as nondeterministic havoc
// constrained only in what it may touch (§5.1, §5.2, §6.3). The concrete
// monitor records an execution trace — the sequence of SVCs the enclave
// made and the terminal event that ended execution — and CheckEnter/
// CheckResume verify the relation holds:
//
//   - the validation outcome (error code) matches the specification;
//   - every non-terminal SVC's result matches the pure SVC specification;
//   - the terminal event maps to the specified error/value pair (the only
//     declassified information, §6.2);
//   - the thread's entered flag and saved context follow the rules of §4
//     (interrupts suspend and save; Exit leaves the thread re-enterable;
//     faults exit with an error code only);
//   - only pages the enclave could legitimately write — data pages of its
//     own address space mapped writable — differ from the replayed PageDB;
//     everything else (other enclaves, page tables, measurements) is
//     exactly as the pure replay predicts.

// ValidateEnter checks the preconditions of Enter and returns the error
// code the specification demands, or ErrSuccess if execution may proceed.
func ValidateEnter(d *pagedb.DB, thread pagedb.PageNr) kapi.Err {
	return validateExec(d, thread, false)
}

// ValidateResume is the Resume analogue: the thread must be suspended.
func ValidateResume(d *pagedb.DB, thread pagedb.PageNr) kapi.Err {
	return validateExec(d, thread, true)
}

func validateExec(d *pagedb.DB, thread pagedb.PageNr, resume bool) kapi.Err {
	if !d.ValidPageNr(thread) {
		return kapi.ErrInvalidPageNo
	}
	e := d.Get(thread)
	if e.Type != pagedb.TypeThread {
		return kapi.ErrNotThread
	}
	if d.Addrspace(e.Owner).State != pagedb.ASFinal {
		return kapi.ErrNotFinal
	}
	if resume && !e.Thread.Entered {
		return kapi.ErrNotEntered
	}
	if !resume && e.Thread.Entered {
		return kapi.ErrAlreadyEntered
	}
	return kapi.ErrSuccess
}

// TerminalResult maps a terminal event to the (error, value) pair the SMC
// must return to the OS — the declassification boundary of §6.2.
func TerminalResult(ev kapi.ExecEvent) (kapi.Err, uint32) {
	switch ev.Kind {
	case kapi.EventExit:
		return kapi.ErrSuccess, ev.ExitVal
	case kapi.EventIRQ:
		return kapi.ErrInterrupted, kapi.ExitIRQ
	case kapi.EventFIQ:
		return kapi.ErrInterrupted, kapi.ExitFIQ
	case kapi.EventFault:
		return kapi.ErrFault, ev.FaultType
	}
	return kapi.ErrInvalidArg, 0
}

// CheckEnter verifies the Enter/Resume relation between before and after
// (the decoded concrete PageDBs), given the recorded trace and the SMC's
// returned (err, val). resume selects Resume semantics. It returns nil if
// the relation holds.
func CheckEnter(p Params, before, after *pagedb.DB, thread pagedb.PageNr,
	resume bool, trace []kapi.ExecEvent, gotErr kapi.Err, gotVal uint32) error {

	expErr := validateExec(before, thread, resume)
	if expErr != kapi.ErrSuccess {
		if gotErr != expErr {
			return fmt.Errorf("spec: validation error %v, monitor returned %v", expErr, gotErr)
		}
		if len(trace) != 0 {
			return fmt.Errorf("spec: rejected call recorded %d execution events", len(trace))
		}
		if !before.Equal(after) {
			return fmt.Errorf("spec: rejected call modified the PageDB")
		}
		return nil
	}

	if len(trace) == 0 {
		return fmt.Errorf("spec: successful enter recorded no terminal event")
	}
	as := before.Get(thread).Owner

	// Replay the SVC sequence against the pure specification.
	d := before.Clone()
	ctxHavoc := false
	for i, ev := range trace[:len(trace)-1] {
		switch ev.Kind {
		case kapi.EventSVC:
			nd, vals, res := ApplySVC(p, d, thread, ev.Call, ev.Args)
			if res != ev.Res || vals != ev.Vals {
				return fmt.Errorf("spec: SVC %d (call %d) returned (%v, %v), spec says (%v, %v)",
					i, ev.Call, ev.Res, ev.Vals, res, vals)
			}
			d = nd
		case kapi.EventFaultHandled:
			// A fault delivered to the registered handler: legal only if
			// one was registered and the thread was not already handling
			// a fault (a nested fault must have been terminal).
			th := d.Get(thread).Thread
			if th.Handler == 0 || th.InHandler {
				return fmt.Errorf("spec: fault-handled event %d without an eligible handler", i)
			}
			nd := d.Clone()
			nd.Get(thread).Thread.InHandler = true
			d = nd
			ctxHavoc = true // the interrupted context was saved (havoc)
		default:
			return fmt.Errorf("spec: non-terminal event %d has kind %v", i, ev.Kind)
		}
	}

	// Terminal event: check the declassified result and thread-state rules.
	term := trace[len(trace)-1]
	if term.Kind == kapi.EventSVC {
		return fmt.Errorf("spec: terminal event is a non-terminal SVC")
	}
	expTermErr, expTermVal := TerminalResult(term)
	if gotErr != expTermErr || gotVal != expTermVal {
		return fmt.Errorf("spec: terminal %v must return (%v, %d), monitor returned (%v, %d)",
			term.Kind, expTermErr, expTermVal, gotErr, gotVal)
	}

	thAfter := after.Get(thread)
	if thAfter.Type != pagedb.TypeThread {
		return fmt.Errorf("spec: thread page changed type during execution")
	}
	dTh := d.Get(thread).Thread
	switch term.Kind {
	case kapi.EventIRQ, kapi.EventFIQ:
		// Interrupt: context saved in the thread page, marked entered "to
		// prevent a suspended thread from being re-entered" (§4).
		if !thAfter.Thread.Entered {
			return fmt.Errorf("spec: interrupted thread not marked entered")
		}
		// The saved context is user-execution havoc: adopt it.
		dTh.Entered = true
		dTh.Ctx = thAfter.Thread.Ctx
	case kapi.EventExit, kapi.EventFault:
		// "the enclave's registers are not saved, permitting it to be
		// re-entered" (§4); faults likewise leave the thread re-enterable
		// with no information captured.
		if thAfter.Thread.Entered {
			return fmt.Errorf("spec: thread marked entered after %v", term.Kind)
		}
		dTh.Entered = false
	default:
		return fmt.Errorf("spec: event kind %v cannot be terminal", term.Kind)
	}
	if ctxHavoc {
		// Fault delivery saved the interrupted user context into the
		// thread page; it is user-execution havoc like the IRQ case.
		dTh.Ctx = thAfter.Thread.Ctx
	}

	// Havoc instantiation: data pages of this address space mapped
	// writable may have been modified by user code; adopt their contents
	// from the concrete result. Everything else must match the replay.
	writable := make(map[pagedb.PageNr]bool)
	for _, pg := range WritablePages(d, as) {
		writable[pg] = true
	}
	for i := range d.Pages {
		n := pagedb.PageNr(i)
		if writable[n] {
			ea := after.Get(n)
			if ea.Type != pagedb.TypeData || ea.Owner != as {
				return fmt.Errorf("spec: writable data page %d changed identity", n)
			}
			d.Get(n).Data.Contents = ea.Data.Contents
		}
	}
	if !d.Equal(after) {
		n := firstDiff(d, after)
		return fmt.Errorf("spec: post-state diverges from specification at page %d (%v vs %v)",
			n, d.Get(n).Type, after.Get(n).Type)
	}
	if err := after.Validate(); err != nil {
		return fmt.Errorf("spec: post-state violates PageDB invariants: %w", err)
	}
	return nil
}

func firstDiff(a, b *pagedb.DB) pagedb.PageNr {
	for i := range a.Pages {
		if !pagedb.EntriesEqual(&a.Pages[i], &b.Pages[i]) {
			return pagedb.PageNr(i)
		}
	}
	return pagedb.PageNr(a.NPages)
}
