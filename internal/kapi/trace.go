package kapi

import "fmt"

// What the monitor reports about its own execution: the Enter/Resume
// trace that internal/spec's relation checks, and the Observer calls that
// feed telemetry. Declared here, the monitor imports neither package.

// EventKind classifies an execution-trace event.
type EventKind int

const (
	// EventSVC is a non-terminal supervisor call (anything but Exit).
	EventSVC EventKind = iota
	// EventExit is the Exit SVC: a voluntary return to the OS.
	EventExit
	// EventIRQ / EventFIQ are interrupts that suspended the enclave.
	EventIRQ
	EventFIQ
	// EventFault is a data abort, prefetch abort, or undefined
	// instruction: the enclave is terminated with an error code only.
	EventFault
	// EventFaultHandled is a non-terminal fault delivered to the
	// enclave's registered fault handler (the §9.2 dispatcher
	// extension): execution continues inside the enclave and the OS
	// observes nothing.
	EventFaultHandled
)

func (k EventKind) String() string {
	switch k {
	case EventSVC:
		return "svc"
	case EventExit:
		return "exit"
	case EventIRQ:
		return "irq"
	case EventFIQ:
		return "fiq"
	case EventFault:
		return "fault"
	case EventFaultHandled:
		return "fault-handled"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ExecEvent is one entry of the recorded execution trace.
type ExecEvent struct {
	Kind EventKind
	// SVC fields (EventSVC): call number, arguments, and the results the
	// monitor returned to the enclave.
	Call uint32
	Args [8]uint32
	Res  Err
	Vals [8]uint32
	// Exit value (EventExit).
	ExitVal uint32
	// Fault type (EventFault, EventFaultHandled): one of
	// ExitDataAbort/PrefAbort/Undef.
	FaultType uint32
}

// PageMove codes: the move argument of Observer.ObservePageMove.
const (
	MoveToSecure       uint32 = iota // insecure contents copied into a secure page (MapSecure)
	MoveScrubbed                     // secure page scrubbed and freed (Remove)
	MoveZeroFilled                   // secure page zero-filled (allocation paths)
	MoveInsecureShared               // insecure page mapped into an enclave (MapInsecure)

	NumPageMoves
)

// Observer receives the monitor's boundary observations: completed SMCs
// (dispatchCyc is the entry/exit share of total) and SVCs, Enter/Resume
// setup cycles, and page moves. internal/telemetry's Recorder implements
// it. Observing never charges simulated cycles.
type Observer interface {
	ObserveSMC(call uint32, args [4]uint32, errc, val uint32, total, dispatchCyc uint64)
	ObserveSVC(call uint32, errc uint32, cyc uint64)
	ObserveEnterSetup(resume bool, cyc uint64)
	ObservePageMove(move uint32, pg uint32)
}
