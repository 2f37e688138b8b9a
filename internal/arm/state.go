package arm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/rng"
)

// World re-exports the TrustZone security state for convenience.
type World = mem.World

// Machine is the complete simulated CPU plus its attached platform devices.
// It corresponds to the paper's "machine state... everything visible about
// a machine (e.g. registers and memory)" (§5.1). Single-core: not safe for
// concurrent use.
type Machine struct {
	Phys *mem.Physical
	TLB  *mmu.TLB
	Cyc  *cycles.Counter
	RNG  *rng.Device

	// r holds R0–R12, shared across modes (we do not model the
	// FIQ-banked copies of R8–R12, exactly as the paper's model omits
	// registers "banked only in FIQ mode").
	r [13]uint32
	// sp, lr and spsr are banked by mode; ModeUsr's spsr slot is unused
	// (user mode has no SPSR).
	sp   [numModes]uint32
	lr   [numModes]uint32
	spsr [numModes]PSR

	pc   uint32
	cpsr PSR

	// scrNS is the SCR.NS bit: the world of all modes other than monitor
	// mode, which is architecturally always secure.
	scrNS bool

	// ttbr0 is banked per world (the paper: "Some system control
	// registers are banked, with one copy for each world. These include
	// the MMU configuration and page-table base registers").
	ttbr0 [2]uint32
	ttbr1 uint32
	vbar  uint32
	mvbar uint32

	// ptPages marks physical pages currently serving as page tables, so
	// stores to them mark the TLB inconsistent per the model (§5.1).
	ptPages map[uint32]bool

	// Interrupt injection: when irqCountdown reaches zero an IRQ is
	// asserted; it stays pending until taken. Negative means no IRQ
	// scheduled.
	irqCountdown int64
	irqPending   bool
	fiqPending   bool

	// retired counts executed instructions; insnClass breaks the same
	// count down by instruction class (telemetry: the counts always sum
	// to retired).
	retired   uint64
	insnClass [NumInsnClasses]uint64

	// TraceFn, when set, is invoked for every instruction about to
	// execute (after fetch+decode). Used by komodo-sim's -trace mode and
	// debugging; nil in normal operation.
	TraceFn func(pc uint32, i Instr)

	// probeFn/probeArmed are the debugger hook (SetProbe, export.go):
	// like TraceFn but installable once and toggled by an atomic flag, so
	// a freeze-the-world monitor can attach to a serving machine from
	// another goroutine without a data race and without costing the block
	// fast path anything while disarmed. Not part of Snapshot state: a
	// probe survives restores and is re-installed on reboot.
	probeFn    func(pc uint32, i *Instr)
	probeArmed *atomic.Bool

	// bc is the superblock translation cache (blockcache.go) — pure
	// simulator acceleration, semantically invisible. Lazily allocated on
	// first dispatch.
	bc blockCache
}

// NewMachine builds a powered-on machine in secure supervisor mode (the
// reset state from which the bootloader runs), with interrupts masked.
func NewMachine(phys *mem.Physical, rnd *rng.Device) *Machine {
	return &Machine{
		Phys:         phys,
		TLB:          mmu.NewTLB(),
		Cyc:          &cycles.Counter{},
		RNG:          rnd,
		cpsr:         PSR{Mode: ModeSvc, I: true, F: true},
		scrNS:        false,
		ptPages:      make(map[uint32]bool),
		irqCountdown: -1,
	}
}

// --- Register file access (banked) ---

// Reg reads a register in the current mode.
func (m *Machine) Reg(r Reg) uint32 {
	switch {
	case r < 13:
		return m.r[r]
	case r == SP:
		return m.sp[m.bankIndex()]
	case r == LR:
		return m.lr[m.bankIndex()]
	}
	panic(fmt.Sprintf("arm: read of invalid register %d", r))
}

// SetReg writes a register in the current mode.
func (m *Machine) SetReg(r Reg, v uint32) {
	switch {
	case r < 13:
		m.r[r] = v
	case r == SP:
		m.sp[m.bankIndex()] = v
	case r == LR:
		m.lr[m.bankIndex()] = v
	default:
		panic(fmt.Sprintf("arm: write of invalid register %d", r))
	}
}

// bankIndex maps the current mode to its SP/LR bank.
func (m *Machine) bankIndex() Mode { return m.cpsr.Mode }

// RegBanked reads the SP or LR bank of a specific mode (the monitor saves
// and restores banked registers across enclave execution, §8.1).
func (m *Machine) RegBanked(mode Mode, r Reg) uint32 {
	switch r {
	case SP:
		return m.sp[mode]
	case LR:
		return m.lr[mode]
	}
	panic(fmt.Sprintf("arm: RegBanked of non-banked register %v", r))
}

// SetRegBanked writes the SP or LR bank of a specific mode.
func (m *Machine) SetRegBanked(mode Mode, r Reg, v uint32) {
	switch r {
	case SP:
		m.sp[mode] = v
	case LR:
		m.lr[mode] = v
	default:
		panic(fmt.Sprintf("arm: SetRegBanked of non-banked register %v", r))
	}
}

// SPSR returns the saved PSR of a privileged mode.
func (m *Machine) SPSR(mode Mode) PSR { return m.spsr[mode] }

// SetSPSR writes the saved PSR of a privileged mode.
func (m *Machine) SetSPSR(mode Mode, p PSR) { m.spsr[mode] = p }

// PC and CPSR accessors.
func (m *Machine) PC() uint32      { return m.pc }
func (m *Machine) SetPC(v uint32)  { m.pc = v }
func (m *Machine) CPSR() PSR       { return m.cpsr }
func (m *Machine) SetCPSR(p PSR)   { m.cpsr = p }
func (m *Machine) Retired() uint64 { return m.retired }

// --- Worlds and system registers ---

// World returns the current security state: monitor mode is always secure;
// other modes follow SCR.NS.
func (m *Machine) World() World {
	if m.cpsr.Mode == ModeMon || !m.scrNS {
		return mem.Secure
	}
	return mem.Normal
}

// SCRNS reads the SCR.NS bit.
func (m *Machine) SCRNS() bool { return m.scrNS }

// SetSCRNS sets the SCR.NS bit (monitor-mode only operation at the
// architectural level; Go callers are the monitor/bootloader).
func (m *Machine) SetSCRNS(ns bool) { m.scrNS = ns }

// TTBR0 returns the page-table base for the given world's bank.
func (m *Machine) TTBR0(w World) uint32 { return m.ttbr0[w] }

// SetTTBR0 loads a world's page-table base register. Loading the active
// base marks the TLB inconsistent, per the model.
func (m *Machine) SetTTBR0(w World, v uint32) {
	m.ttbr0[w] = v
	m.TLB.MarkInconsistent()
}

// TTBR1 / VBAR / MVBAR accessors.
func (m *Machine) TTBR1() uint32     { return m.ttbr1 }
func (m *Machine) SetTTBR1(v uint32) { m.ttbr1 = v }
func (m *Machine) VBAR() uint32      { return m.vbar }
func (m *Machine) SetVBAR(v uint32)  { m.vbar = v }
func (m *Machine) MVBAR() uint32     { return m.mvbar }
func (m *Machine) SetMVBAR(v uint32) { m.mvbar = v }

// SetPageTablePages tells the machine which physical pages currently hold
// page tables, so that stores to them mark the TLB inconsistent (§5.1:
// "executing a store to an address in either the first-level or any
// second-level page table marks the TLB as inconsistent"). The monitor
// updates this set when it builds or tears down enclave tables.
func (m *Machine) SetPageTablePages(pages map[uint32]bool) {
	if pages == nil {
		pages = make(map[uint32]bool)
	}
	m.ptPages = pages
}

// NotePTStore is called for every store the monitor itself performs into a
// page-table page (the monitor is Go code, so its stores do not pass
// through the interpreter's hook).
func (m *Machine) NotePTStore() { m.TLB.MarkInconsistent() }

// --- Interrupt injection ---

// ScheduleIRQ arranges for an IRQ to be asserted before the nth subsequent
// instruction executes (so n-1 instructions retire first; n<=0 asserts
// immediately). Tests and the benchmark harness use this to exercise the
// suspend/resume path; TestScheduleIRQSemantics pins the contract.
func (m *Machine) ScheduleIRQ(n int64) { m.irqCountdown = n }

// CancelIRQ clears any scheduled or pending IRQ.
func (m *Machine) CancelIRQ() {
	m.irqCountdown = -1
	m.irqPending = false
}

// AssertFIQ raises an FIQ immediately.
func (m *Machine) AssertFIQ() { m.fiqPending = true }

// IRQPending reports whether an IRQ is asserted but not yet taken.
func (m *Machine) IRQPending() bool { return m.irqPending }
