package arm

import (
	"errors"

	"repro/internal/mem"
)

// Snapshot captures the complete simulated-machine state: the
// architectural state (MachineState) plus a copy of memory. Restoring a
// snapshot resumes the simulation bit-identically — useful for forking
// paired executions mid-run (the bisimulation harness), rewinding failed
// experiments, and reproducing bugs.
type Snapshot struct {
	state  MachineState
	memory *mem.MemSnapshot
}

// Snapshot captures the machine.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{memory: m.Phys.Snapshot()}
	m.exportInto(&s.state)
	return s
}

// Rebase makes s capture the machine's current state, updating it in
// place: memory through mem.Physical.Rebase (only the pages dirtied since
// s was captured or last restored are copied), the architectural state
// exactly as Snapshot records it. It returns false, leaving s untouched,
// when s is no longer memory's dirty-tracking baseline — another
// snapshot, restore or import has happened since — and the caller should
// take a fresh Snapshot instead. Anyone else holding s sees the new state,
// so only a snapshot's sole owner may rebase it.
func (m *Machine) Rebase(s *Snapshot) bool {
	if s == nil || s.memory == nil || !m.Phys.Rebase(s.memory) {
		return false
	}
	m.exportInto(&s.state)
	return true
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
	m.setState(&s.state)
	return nil
}
