package arm

import (
	"errors"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// Snapshot captures the complete simulated-machine state: register file,
// system registers, memory, TLB, RNG, cycle counter, and interrupt
// schedule. Restoring a snapshot resumes the simulation bit-identically —
// useful for forking paired executions mid-run (the bisimulation harness),
// rewinding failed experiments, and reproducing bugs.
type Snapshot struct {
	r     [13]uint32
	sp    [numModes]uint32
	lr    [numModes]uint32
	spsr  [numModes]PSR
	pc    uint32
	cpsr  PSR
	scrNS bool
	ttbr0 [2]uint32
	ttbr1 uint32
	vbar  uint32
	mvbar uint32

	ptPages map[uint32]bool

	irqCountdown int64
	irqPending   bool
	fiqPending   bool
	retired      uint64
	insnClass    [NumInsnClasses]uint64

	memory *mem.MemSnapshot
	rng    [4]uint64
	cycles uint64

	tlbConsistent bool
	// The TLB's cached translations are architecturally restorable as
	// empty (a flushed TLB is always a legal TLB state — it only caches);
	// consistency tracking must be preserved, entries need not be.
}

// Snapshot captures the machine.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{memory: m.Phys.Snapshot()}
	m.capture(s)
	return s
}

// Rebase makes s capture the machine's current state, updating it in
// place: memory through mem.Physical.Rebase (only the pages dirtied since
// s was captured or last restored are copied), every other field exactly
// as Snapshot records it. It returns false, leaving s untouched, when s is
// no longer memory's dirty-tracking baseline — another snapshot, restore
// or import has happened since — and the caller should take a fresh
// Snapshot instead. Anyone else holding s sees the new state, so only a
// snapshot's sole owner may rebase it.
func (m *Machine) Rebase(s *Snapshot) bool {
	if s == nil || s.memory == nil || !m.Phys.Rebase(s.memory) {
		return false
	}
	m.capture(s)
	return true
}

// capture copies every non-memory field into s — the one definition of
// what a snapshot records, shared by Snapshot and Rebase.
func (m *Machine) capture(s *Snapshot) {
	s.r = m.r
	s.sp = m.sp
	s.lr = m.lr
	s.spsr = m.spsr
	s.pc = m.pc
	s.cpsr = m.cpsr
	s.scrNS = m.scrNS
	s.ttbr0 = m.ttbr0
	s.ttbr1 = m.ttbr1
	s.vbar = m.vbar
	s.mvbar = m.mvbar
	s.irqCountdown = m.irqCountdown
	s.irqPending = m.irqPending
	s.fiqPending = m.fiqPending
	s.retired = m.retired
	s.insnClass = m.insnClass
	s.rng = m.RNG.State()
	s.cycles = m.Cyc.Total()
	s.tlbConsistent = m.TLB.Consistent()
	if s.ptPages == nil {
		s.ptPages = make(map[uint32]bool, len(m.ptPages))
	} else {
		clear(s.ptPages)
	}
	for k, v := range m.ptPages {
		s.ptPages[k] = v
	}
}

// Restore rewinds the machine to the snapshot. The snapshot must come from
// a machine with the same memory layout.
func (m *Machine) Restore(s *Snapshot) error {
	if s == nil || s.memory == nil {
		return errors.New("arm: nil snapshot")
	}
	if err := m.Phys.Restore(s.memory); err != nil {
		return err
	}
	m.r = s.r
	m.sp = s.sp
	m.lr = s.lr
	m.spsr = s.spsr
	m.pc = s.pc
	m.cpsr = s.cpsr
	m.scrNS = s.scrNS
	m.ttbr0 = s.ttbr0
	m.ttbr1 = s.ttbr1
	m.vbar = s.vbar
	m.mvbar = s.mvbar
	m.irqCountdown = s.irqCountdown
	m.irqPending = s.irqPending
	m.fiqPending = s.fiqPending
	m.retired = s.retired
	m.insnClass = s.insnClass
	m.ptPages = make(map[uint32]bool, len(s.ptPages))
	for k, v := range s.ptPages {
		m.ptPages[k] = v
	}
	m.RNG.SetState(s.rng)
	m.Cyc.Reset()
	m.Cyc.Charge(s.cycles)
	// An empty TLB is always sound; restore only the consistency flag.
	m.TLB = mmu.NewTLB()
	if !s.tlbConsistent {
		m.TLB.MarkInconsistent()
	}
	// Strict invalidation on snapshot restore: the block cache may hold
	// instructions from the abandoned timeline. (Delta restore also bumps
	// restored pages' versions, but dropping everything here keeps the
	// invalidation argument local.)
	m.bc.reset()
	return nil
}
