package replay

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/arm"
)

// Freezer is the freeze-the-world half of the monitor: it parks a running
// machine's execution goroutine mid-enclave and lets another goroutine
// (a debug endpoint, komodo-mon's REPL) inspect and single-step it.
//
// Concurrency contract: the machine is single-threaded; only its execution
// goroutine touches machine state. The freezer's probe runs on that
// goroutine. While parked, commands submitted with Do are executed *by the
// parked goroutine*, so every inspection and mutation stays on the owning
// goroutine and the whole arrangement is race-free under -race. The only
// cross-goroutine state is a handful of atomics and channels.
//
// Install once per machine with Install (before the machine runs); the
// probe stays resident for the machine's life and costs one atomic load
// per superblock dispatch while disarmed. Snapshots do not capture probes,
// so a pool worker keeps its freezer across restores.
type Freezer struct {
	mach *arm.Machine

	armed     atomic.Bool
	frozen    atomic.Bool
	freezeReq atomic.Bool

	cmds   chan freezeCmd
	parked chan struct{} // buffered; one token per park event

	// Exec-goroutine-owned state (touched only from the probe / parked
	// command execution).
	pred    func(pc uint32, i *arm.Instr) bool
	watches []Watch
	lastHit string
	pc      uint32
	insn    arm.Instr
}

type freezeCmd struct {
	fn     func()                             // nil = release
	pred   func(pc uint32, i *arm.Instr) bool // on release: next stop predicate
	disarm bool                               // on release: fully detach
	done   chan struct{}
}

// WatchKind selects what accesses a watchpoint observes.
type WatchKind uint8

const (
	WatchRead WatchKind = 1 << iota
	WatchWrite
)

func (k WatchKind) String() string {
	switch k {
	case WatchRead:
		return "r"
	case WatchWrite:
		return "w"
	case WatchRead | WatchWrite:
		return "rw"
	}
	return "?"
}

// Watch is one read/write watchpoint over a virtual address range.
type Watch struct {
	Kind WatchKind
	Addr uint32
	Len  uint32 // bytes; 0 means 4
}

func (w Watch) String() string {
	return fmt.Sprintf("%s %#x+%d", w.Kind, w.Addr, w.span())
}

func (w Watch) span() uint32 {
	if w.Len == 0 {
		return 4
	}
	return w.Len
}

// Install attaches a freezer to a machine. Must run before the machine
// executes (or while it is quiescent).
func Install(m *arm.Machine) *Freezer {
	f := &Freezer{
		mach:   m,
		cmds:   make(chan freezeCmd),
		parked: make(chan struct{}, 1),
	}
	m.SetProbe(f.probe, &f.armed)
	return f
}

// probe runs on the execution goroutine before every instruction while
// armed.
func (f *Freezer) probe(pc uint32, i *arm.Instr) {
	hit := ""
	switch {
	case f.freezeReq.Load():
		hit = "freeze request"
	case f.pred != nil && f.pred(pc, i):
		hit = "step/until condition"
	default:
		if w := f.watchHit(i); w != nil {
			hit = "watchpoint " + w.String()
		}
	}
	if hit == "" {
		return
	}
	f.park(pc, i, hit)
}

// watchHit reports the first watchpoint the instruction's data access
// touches, or nil. Effective addresses come from the register file, which
// still holds pre-execution values (the probe runs before the insn).
func (f *Freezer) watchHit(i *arm.Instr) *Watch {
	var addr uint32
	var kind WatchKind
	switch i.Op {
	case arm.OpLDR:
		addr, kind = f.mach.Reg(i.Rn)+i.Imm, WatchRead
	case arm.OpSTR:
		addr, kind = f.mach.Reg(i.Rn)+i.Imm, WatchWrite
	case arm.OpLDRR:
		addr, kind = f.mach.Reg(i.Rn)+f.mach.Reg(i.Rm), WatchRead
	case arm.OpSTRR:
		addr, kind = f.mach.Reg(i.Rn)+f.mach.Reg(i.Rm), WatchWrite
	default:
		return nil
	}
	for idx := range f.watches {
		w := &f.watches[idx]
		if w.Kind&kind != 0 && addr >= w.Addr && addr < w.Addr+w.span() {
			return w
		}
	}
	return nil
}

// park blocks the execution goroutine until released, running submitted
// commands in the meantime.
func (f *Freezer) park(pc uint32, i *arm.Instr, why string) {
	f.freezeReq.Store(false)
	f.pred = nil
	f.pc = pc
	f.insn = *i
	f.lastHit = why
	f.frozen.Store(true)
	select {
	case f.parked <- struct{}{}:
	default:
	}
	for c := range f.cmds {
		if c.fn != nil {
			c.fn()
			close(c.done)
			continue
		}
		f.pred = c.pred
		if c.disarm {
			f.armed.Store(false)
		}
		f.frozen.Store(false)
		close(c.done)
		return
	}
}

// Frozen reports whether the machine is currently parked.
func (f *Freezer) Frozen() bool { return f.frozen.Load() }

// ErrNotFrozen is returned by operations that need a parked machine.
var ErrNotFrozen = errors.New("replay: machine not frozen")

// ErrNotRunning is returned when a freeze or step times out because the
// machine is not executing enclave instructions (the probe only fires
// during simulated execution; the rest of the time the worker is Go code
// or idle).
var ErrNotRunning = errors.New("replay: machine not executing enclave code (try again under load, or step the replay)")

// Freeze arms the probe and requests a stop at the next executed
// instruction, waiting up to timeout for the machine to park. On timeout
// the request is withdrawn (and the probe disarmed) so an enclave entered
// later does not silently park with nobody waiting.
func (f *Freezer) Freeze(timeout time.Duration) error {
	if f.Frozen() {
		return nil
	}
	f.armed.Store(true)
	f.freezeReq.Store(true)
	if err := f.waitParked(timeout); err == nil {
		return nil
	}
	f.freezeReq.Store(false)
	f.armed.Store(false)
	// The probe may have hit the request in the instant before the
	// withdrawal; give the park a grace period so we never strand a
	// parked machine.
	select {
	case <-f.parked:
		return nil
	case <-time.After(50 * time.Millisecond):
	}
	if f.Frozen() {
		return nil
	}
	return ErrNotRunning
}

func (f *Freezer) waitParked(timeout time.Duration) error {
	select {
	case <-f.parked:
		return nil
	case <-time.After(timeout):
		if f.Frozen() {
			// Raced with the park signal; consume nothing, state is fine.
			return nil
		}
		return ErrNotRunning
	}
}

// Do runs fn on the parked execution goroutine and waits for it. The
// machine may be freely inspected and mutated inside fn.
func (f *Freezer) Do(fn func(m *arm.Machine)) error {
	if !f.Frozen() {
		return ErrNotFrozen
	}
	done := make(chan struct{})
	select {
	case f.cmds <- freezeCmd{fn: func() { fn(f.mach) }, done: done}:
	case <-time.After(5 * time.Second):
		return ErrNotFrozen
	}
	<-done
	return nil
}

// Where reports the parked position: PC, the pending (not yet executed)
// instruction, and why the machine stopped.
func (f *Freezer) Where() (pc uint32, insn arm.Instr, why string, err error) {
	err = f.Do(func(*arm.Machine) {
		pc, insn, why = f.pc, f.insn, f.lastHit
	})
	return
}

// release resumes execution with a stop predicate for the next park.
func (f *Freezer) release(pred func(pc uint32, i *arm.Instr) bool, disarm bool) error {
	if !f.Frozen() {
		return ErrNotFrozen
	}
	// Drain any stale park token so waitParked observes the *next* park.
	select {
	case <-f.parked:
	default:
	}
	done := make(chan struct{})
	select {
	case f.cmds <- freezeCmd{pred: pred, disarm: disarm, done: done}:
	case <-time.After(5 * time.Second):
		return ErrNotFrozen
	}
	<-done
	return nil
}

// Resume detaches completely: execution continues at full speed and
// watchpoints stop firing until the next Freeze.
func (f *Freezer) Resume() error { return f.release(nil, true) }

// Continue resumes execution but keeps the probe armed, so watchpoints
// remain live (at single-step interpretation speed).
func (f *Freezer) Continue() error { return f.release(nil, false) }

// Step executes n instructions and parks again, waiting up to timeout.
// If the enclave exits the monitor before n instructions retire, the park
// never happens and ErrNotRunning is returned — the machine is live again.
func (f *Freezer) Step(n uint64, timeout time.Duration) error {
	if n == 0 {
		return nil
	}
	// The pending instruction executes on release; the predicate first
	// fires at the following instruction, so >= n parks after exactly n
	// instructions have executed.
	count := uint64(0)
	err := f.release(func(uint32, *arm.Instr) bool {
		count++
		return count >= n
	}, false)
	if err != nil {
		return err
	}
	return f.waitParked(timeout)
}

// RunToAddr resumes until PC reaches addr.
func (f *Freezer) RunToAddr(addr uint32, timeout time.Duration) error {
	if err := f.release(func(pc uint32, _ *arm.Instr) bool { return pc == addr }, false); err != nil {
		return err
	}
	return f.waitParked(timeout)
}

// RunToCycle resumes until the cycle counter reaches at least target.
func (f *Freezer) RunToCycle(target uint64, timeout time.Duration) error {
	m := f.mach
	if err := f.release(func(uint32, *arm.Instr) bool { return m.Cyc.Total() >= target }, false); err != nil {
		return err
	}
	return f.waitParked(timeout)
}

// RunToSMC resumes until the next SMC or SVC instruction is about to
// execute (the enclave's next trip into the monitor).
func (f *Freezer) RunToSMC(timeout time.Duration) error {
	if err := f.release(func(_ uint32, i *arm.Instr) bool {
		return i.Op == arm.OpSMC || i.Op == arm.OpSVC
	}, false); err != nil {
		return err
	}
	return f.waitParked(timeout)
}

// StepOver steps across the pending instruction; for an SVC/SMC that means
// the entire monitor call (the probe next fires on the first instruction
// after control returns to enclave code, since only enclave instructions
// are simulated).
func (f *Freezer) StepOver(timeout time.Duration) error { return f.Step(1, timeout) }

// AddWatch installs a watchpoint (machine must be frozen).
func (f *Freezer) AddWatch(w Watch) error {
	return f.Do(func(*arm.Machine) { f.watches = append(f.watches, w) })
}

// Watches lists current watchpoints.
func (f *Freezer) Watches() (out []Watch, err error) {
	err = f.Do(func(*arm.Machine) { out = append(out, f.watches...) })
	return
}

// DeleteWatch removes watchpoint idx.
func (f *Freezer) DeleteWatch(idx int) error {
	var bad bool
	err := f.Do(func(*arm.Machine) {
		if idx < 0 || idx >= len(f.watches) {
			bad = true
			return
		}
		f.watches = append(f.watches[:idx], f.watches[idx+1:]...)
	})
	if err == nil && bad {
		return fmt.Errorf("replay: no watchpoint %d", idx)
	}
	return err
}
