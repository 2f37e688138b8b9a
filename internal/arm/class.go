package arm

// InsnClass groups opcodes for the interpreter's per-class retirement
// counters (telemetry). Classes follow the ISA's natural families; an
// instruction is counted when it retires, so the class counts always sum
// to Retired() — trapping instructions (SVC, SMC, HLT, faults) never
// retire and are visible as traps instead.
type InsnClass uint8

const (
	// ClassALU: data processing — moves, arithmetic, logic, shifts, and
	// the flag-setting compares/tests.
	ClassALU InsnClass = iota
	// ClassMem: loads and stores.
	ClassMem
	// ClassBranch: B, BL, BX.
	ClassBranch
	// ClassSystem: status/system-register access and interrupt masking
	// (MRS, MSR, RDSYS, WRSYS, CPSID, CPSIE).
	ClassSystem
	// ClassBarrier: NOP and the architectural no-op barriers DSB/ISB.
	ClassBarrier
	// ClassExcReturn: the MOVS PC, LR exception return.
	ClassExcReturn

	NumInsnClasses
)

var insnClassNames = [NumInsnClasses]string{
	"alu", "mem", "branch", "system", "barrier", "exc-return",
}

func (c InsnClass) String() string {
	if c < NumInsnClasses {
		return insnClassNames[c]
	}
	return "class(?)"
}

// classOf maps each opcode to its class (a table lookup: it sits on the
// interpreter's per-instruction path).
var classOf = func() [numOps]InsnClass {
	var t [numOps]InsnClass
	for op := Op(0); op < numOps; op++ {
		switch op {
		case OpNOP, OpDSB, OpISB:
			t[op] = ClassBarrier
		case OpLDR, OpSTR, OpLDRR, OpSTRR:
			t[op] = ClassMem
		case OpB, OpBL, OpBX:
			t[op] = ClassBranch
		case OpMRS, OpMSR, OpRDSYS, OpWRSYS, OpCPSID, OpCPSIE:
			t[op] = ClassSystem
		case OpMOVSPCLR:
			t[op] = ClassExcReturn
		case OpHLT, OpSVC, OpSMC:
			// Never retire (they always trap); classed as system for
			// completeness.
			t[op] = ClassSystem
		default:
			t[op] = ClassALU
		}
	}
	return t
}()

// InsnClassCounts returns the per-class retirement counters. The slice
// indexes by InsnClass; the counts sum to Retired().
func (m *Machine) InsnClassCounts() [NumInsnClasses]uint64 { return m.insnClass }

// InsnClassMap renders the per-class counters keyed by class name,
// omitting zero entries — the telemetry snapshot form.
func (m *Machine) InsnClassMap() map[string]uint64 {
	out := make(map[string]uint64, NumInsnClasses)
	for c := InsnClass(0); c < NumInsnClasses; c++ {
		if n := m.insnClass[c]; n > 0 {
			out[c.String()] = n
		}
	}
	return out
}
