package arm

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// Machine state export/import and the debugger probe, for the
// deterministic record/replay layer and the freeze-the-world monitor
// (internal/replay, cmd/komodo-mon).
//
// MachineState is the one definition of architectural state: Snapshot
// holds one next to its in-process memory copy, and a replay trace
// serialises one for a fresh process to import. It carries everything
// architectural except memory content, which a trace carries separately
// as mem.PageImage pages.

// MachineState is the complete architectural CPU state, exported.
type MachineState struct {
	R    [13]uint32
	SP   [numModes]uint32
	LR   [numModes]uint32
	SPSR [numModes]PSR
	PC   uint32
	CPSR PSR

	SCRNS bool
	TTBR0 [2]uint32
	TTBR1 uint32
	VBAR  uint32
	MVBAR uint32

	// PTPages lists the physical page bases currently serving as page
	// tables, sorted ascending (a deterministic encoding of the set).
	PTPages []uint32

	IRQCountdown int64
	IRQPending   bool
	FIQPending   bool

	Retired   uint64
	InsnClass [NumInsnClasses]uint64
	RNG       [4]uint64
	Cycles    uint64

	TLBConsistent bool
}

// ExportState captures the machine's architectural state.
func (m *Machine) ExportState() MachineState {
	var s MachineState
	m.exportInto(&s)
	return s
}

// exportInto overwrites *s with the machine's architectural state — the
// one capture shared by ExportState, Snapshot and Rebase. It reuses
// s.PTPages' backing array, so an in-place Rebase allocates nothing. It
// assigns field by field: storing a whole MachineState literal through s
// measured about 150 ns slower per rebase (BenchmarkRebase).
func (m *Machine) exportInto(s *MachineState) {
	s.R = m.r
	s.SP = m.sp
	s.LR = m.lr
	s.SPSR = m.spsr
	s.PC = m.pc
	s.CPSR = m.cpsr
	s.SCRNS = m.scrNS
	s.TTBR0 = m.ttbr0
	s.TTBR1 = m.ttbr1
	s.VBAR = m.vbar
	s.MVBAR = m.mvbar
	s.PTPages = s.PTPages[:0]
	s.IRQCountdown = m.irqCountdown
	s.IRQPending = m.irqPending
	s.FIQPending = m.fiqPending
	s.Retired = m.retired
	s.InsnClass = m.insnClass
	s.RNG = m.RNG.State()
	s.Cycles = m.Cyc.Total()
	s.TLBConsistent = m.TLB.Consistent()
	for pg := range m.ptPages {
		s.PTPages = append(s.PTPages, pg)
	}
	slices.Sort(s.PTPages)
}

// ImportState imposes an exported state on the machine, as Restore does
// a snapshot's. The state may come from a file, so it is validated first.
func (m *Machine) ImportState(s MachineState) error {
	for _, p := range s.SPSR {
		if p.Mode >= numModes {
			return fmt.Errorf("arm: import of invalid SPSR mode %d", p.Mode)
		}
	}
	if s.CPSR.Mode >= numModes {
		return fmt.Errorf("arm: import of invalid CPSR mode %d", s.CPSR.Mode)
	}
	m.setState(&s)
	return nil
}

// setState imposes s on the machine — the one restore shared by Restore
// and ImportState. The TLB comes back empty (always a legal TLB state)
// with only the consistency flag preserved; a fresh TLB rather than a
// flush keeps the TLB counters telemetry reports. The block cache drops
// everything, since it may hold instructions from the abandoned timeline.
// (Delta restore also bumps restored pages' versions, but dropping
// everything here keeps the invalidation argument local.)
func (m *Machine) setState(s *MachineState) {
	m.r = s.R
	m.sp = s.SP
	m.lr = s.LR
	m.spsr = s.SPSR
	m.pc = s.PC
	m.cpsr = s.CPSR
	m.scrNS = s.SCRNS
	m.ttbr0 = s.TTBR0
	m.ttbr1 = s.TTBR1
	m.vbar = s.VBAR
	m.mvbar = s.MVBAR
	m.irqCountdown = s.IRQCountdown
	m.irqPending = s.IRQPending
	m.fiqPending = s.FIQPending
	m.retired = s.Retired
	m.insnClass = s.InsnClass
	m.SetPageTablePages(s.PTPages)
	m.RNG.SetState(s.RNG)
	m.Cyc.Reset()
	m.Cyc.Charge(s.Cycles)
	m.TLB = mmu.NewTLB()
	if !s.TLBConsistent {
		m.TLB.MarkInconsistent()
	}
	m.bc.reset()
}

// Diff lists the fields in which two machine states differ, as
// "name: <a> != <b>" strings — the replayer's divergence report.
func (s MachineState) Diff(o MachineState) []string {
	var d []string
	add := func(name string, a, b any) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			d = append(d, fmt.Sprintf("%s: %v != %v", name, a, b))
		}
	}
	for i := range s.R {
		add(fmt.Sprintf("r%d", i), s.R[i], o.R[i])
	}
	for mo := Mode(0); mo < numModes; mo++ {
		add(fmt.Sprintf("sp_%v", mo), s.SP[mo], o.SP[mo])
		add(fmt.Sprintf("lr_%v", mo), s.LR[mo], o.LR[mo])
		add(fmt.Sprintf("spsr_%v", mo), s.SPSR[mo], o.SPSR[mo])
	}
	add("pc", s.PC, o.PC)
	add("cpsr", s.CPSR, o.CPSR)
	add("scr_ns", s.SCRNS, o.SCRNS)
	add("ttbr0", s.TTBR0, o.TTBR0)
	add("ttbr1", s.TTBR1, o.TTBR1)
	add("vbar", s.VBAR, o.VBAR)
	add("mvbar", s.MVBAR, o.MVBAR)
	add("pt_pages", s.PTPages, o.PTPages)
	add("irq_countdown", s.IRQCountdown, o.IRQCountdown)
	add("irq_pending", s.IRQPending, o.IRQPending)
	add("fiq_pending", s.FIQPending, o.FIQPending)
	add("retired", s.Retired, o.Retired)
	add("insn_classes", s.InsnClass, o.InsnClass)
	add("rng", s.RNG, o.RNG)
	add("cycles", s.Cycles, o.Cycles)
	add("tlb_consistent", s.TLBConsistent, o.TLBConsistent)
	return d
}

// --- Debugger probe ---

// SetProbe installs a debugger hook: while *armed is true, fn runs before
// every instruction (after fetch/decode, like TraceFn), and the superblock
// fast path stands down so delivery is per-instruction. While disarmed the
// only cost is one atomic load per block dispatch — a probe can stay
// installed on a serving worker for its whole life.
//
// The flag may be flipped from another goroutine (that is the point: a
// debugger freezes a running machine), but fn itself always runs on the
// machine's execution goroutine, so everything it does to machine state is
// race-free. Install at boot/provision time, before the machine runs.
func (m *Machine) SetProbe(fn func(pc uint32, i *Instr), armed *atomic.Bool) {
	m.probeFn = fn
	m.probeArmed = armed
}

// probeActive reports whether the probe wants per-instruction delivery.
func (m *Machine) probeActive() bool {
	return m.probeArmed != nil && m.probeArmed.Load()
}

// --- Side-effect-free inspection (the monitor's view of a frozen machine) ---

// ErrDebugUnmapped reports a debug access to an unmapped virtual address.
var ErrDebugUnmapped = errors.New("arm: address not mapped")

// DebugResolve translates an address the way the machine's next data
// access would — through the active TTBR0 page table in secure user mode,
// untranslated otherwise — without charging cycles, filling the TLB, or
// perturbing any other machine state.
func (m *Machine) DebugResolve(va uint32) (uint32, error) {
	if m.cpsr.Mode != ModeUsr || m.World() != mem.Secure {
		return va, nil
	}
	pa, _, err := mmu.Walk(m.Phys, m.ttbr0[mem.Secure], va)
	if err != nil {
		return 0, fmt.Errorf("%w: %#x (%v)", ErrDebugUnmapped, va, err)
	}
	return pa, nil
}

// DebugRead reads one word at a virtual address, side-effect-free.
func (m *Machine) DebugRead(va uint32) (uint32, error) {
	pa, err := m.DebugResolve(va)
	if err != nil {
		return 0, err
	}
	return m.Phys.Read(pa&^3, m.World())
}

// DebugReadPhys reads one word at a physical address, side-effect-free,
// trying the current world first and falling back to the other (the
// monitor inspects both secure and insecure memory).
func (m *Machine) DebugReadPhys(pa uint32) (uint32, error) {
	if v, err := m.Phys.Read(pa&^3, mem.Secure); err == nil {
		return v, nil
	}
	return m.Phys.Read(pa&^3, mem.Normal)
}
