package arm

import (
	"errors"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TrapKind classifies why Run stopped. Traps are the transition points of
// the paper's proof structure (§6.1): control leaves the currently
// executing entity and enters a handler — here, the Go-level monitor or OS
// standing in for the exception-vector code.
type TrapKind int

const (
	// TrapSVC: user code executed SVC. The machine is in svc mode; the
	// call number is in R0 per Komodo's ABI; LR_svc holds the return PC.
	TrapSVC TrapKind = iota
	// TrapSMC: SMC executed (normal-world OS invoking the monitor, or —
	// illegally — an enclave; the monitor rejects the latter). The
	// machine is in monitor mode.
	TrapSMC
	// TrapIRQ / TrapFIQ: an injected interrupt was taken.
	TrapIRQ
	TrapFIQ
	// TrapDataAbort: a load/store faulted (translation, permission,
	// alignment, or integrity). The machine is in abt mode.
	TrapDataAbort
	// TrapPrefetchAbort: instruction fetch faulted.
	TrapPrefetchAbort
	// TrapUndef: undefined or privilege-violating instruction.
	TrapUndef
	// TrapHalt: normal-world code executed HLT (simulation stop; not an
	// architectural event — secure-world user HLT raises TrapUndef
	// instead, so an enclave cannot stop the machine).
	TrapHalt
	// TrapBudget: the instruction budget given to Run was exhausted.
	TrapBudget
)

func (k TrapKind) String() string {
	switch k {
	case TrapSVC:
		return "svc"
	case TrapSMC:
		return "smc"
	case TrapIRQ:
		return "irq"
	case TrapFIQ:
		return "fiq"
	case TrapDataAbort:
		return "data-abort"
	case TrapPrefetchAbort:
		return "prefetch-abort"
	case TrapUndef:
		return "undef"
	case TrapHalt:
		return "halt"
	case TrapBudget:
		return "budget"
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// Trap describes why execution stopped. FaultAddr/FaultErr carry diagnostic
// detail for the simulator's logs only; the monitor must not forward them
// to the OS (§4: an enclave exception exits "with an error code (but no
// other information, to avoid side-channel leaks)").
type Trap struct {
	Kind      TrapKind
	FaultAddr uint32
	FaultErr  error
}

// exception targets: mode taken to, and whether LR should hold the address
// of the faulting instruction (aborts) or of the next one (calls, IRQs).
func trapMode(k TrapKind) Mode {
	switch k {
	case TrapSVC:
		return ModeSvc
	case TrapSMC:
		return ModeMon
	case TrapIRQ:
		return ModeIrq
	case TrapFIQ:
		return ModeFiq
	case TrapDataAbort, TrapPrefetchAbort:
		return ModeAbt
	case TrapUndef:
		return ModeUnd
	}
	return ModeSvc
}

// TakeException performs architectural exception entry: bank the CPSR into
// the target mode's SPSR, store the return address in the banked LR
// ("preserves the pre-exception PC value in LR", §5.1), switch mode, and
// mask IRQs. retAddr is the PC value execution should resume at.
func (m *Machine) TakeException(k TrapKind, retAddr uint32) {
	target := trapMode(k)
	m.spsr[target] = m.cpsr
	m.lr[target] = retAddr
	m.cpsr.Mode = target
	m.cpsr.I = true // exception entry masks IRQs
	if k == TrapFIQ {
		m.cpsr.F = true
	}
	m.Cyc.Charge(cycles.ExceptionEntry)
	// PC would be loaded from the VBAR/MVBAR vector; the Go-level handler
	// plays the vector code's role, so we leave PC at the vector address
	// for fidelity in traces.
	if target == ModeMon {
		m.pc = m.mvbar + 4*uint32(k)
	} else {
		m.pc = m.vbar + 4*uint32(k)
	}
}

// ExceptionReturn implements MOVS PC, LR from the current privileged mode:
// PC := banked LR, CPSR := banked SPSR. This is one of the two control
// transfers the paper models explicitly.
func (m *Machine) ExceptionReturn() {
	cur := m.cpsr.Mode
	if cur == ModeUsr {
		panic("arm: ExceptionReturn from user mode")
	}
	m.pc = m.lr[cur]
	m.cpsr = m.spsr[cur]
	m.Cyc.Charge(cycles.EretToUser)
}

// --- Virtual memory ---

// translate resolves a user-mode virtual address in the current (secure)
// world. wantWrite/wantExec select the permission check. It consults the
// TLB first, then walks.
func (m *Machine) translate(va uint32, wantWrite, wantExec bool) (uint32, error) {
	pageOff := va & (mem.PageSize - 1)
	if paBase, perms, ok := m.TLB.Lookup(va); ok {
		if err := checkPerms(perms, wantWrite, wantExec, va); err != nil {
			return 0, err
		}
		return paBase | pageOff, nil
	}
	m.Cyc.Charge(cycles.PageWalk)
	pa, perms, err := mmu.Walk(m.Phys, m.ttbr0[m.World()], va)
	if err != nil {
		return 0, err
	}
	m.TLB.Fill(va, pa&^uint32(mem.PageSize-1), perms)
	if err := checkPerms(perms, wantWrite, wantExec, va); err != nil {
		return 0, err
	}
	return pa, nil
}

// ErrPerm is the permission-fault error cause.
var ErrPerm = errors.New("arm: permission fault")

func checkPerms(p mmu.Perms, wantWrite, wantExec bool, va uint32) error {
	if wantWrite && !p.Write {
		return fmt.Errorf("%w: write to read-only va %#x", ErrPerm, va)
	}
	if wantExec && !p.Exec {
		return fmt.Errorf("%w: execute from non-executable va %#x", ErrPerm, va)
	}
	return nil
}

// memRead performs a data load at the current mode/world. User mode in the
// secure world translates through TTBR0; privileged secure mode uses the
// monitor's direct physical mapping; the normal world runs untranslated on
// physical addresses (the OS model manages its own memory; the TZASC still
// blocks it from secure RAM).
func (m *Machine) memRead(addr uint32) (uint32, error) {
	m.Cyc.Charge(cycles.MemAccess)
	if m.cpsr.Mode == ModeUsr && m.World() == mem.Secure {
		pa, err := m.translate(addr, false, false)
		if err != nil {
			return 0, err
		}
		return m.Phys.Read(pa, mem.Secure)
	}
	return m.Phys.Read(addr, m.World())
}

func (m *Machine) memWrite(addr, val uint32) error {
	m.Cyc.Charge(cycles.MemAccess)
	var pa uint32
	if m.cpsr.Mode == ModeUsr && m.World() == mem.Secure {
		var err error
		pa, err = m.translate(addr, true, false)
		if err != nil {
			return err
		}
	} else {
		pa = addr
	}
	if err := m.Phys.Write(pa, val, m.World()); err != nil {
		return err
	}
	if m.ptPages[pa&^uint32(mem.PageSize-1)] {
		m.TLB.MarkInconsistent()
	}
	return nil
}

// fetchPA reads the instruction word at PC, returning the physical
// address it resolved to (the block cache tags entries with it).
func (m *Machine) fetchPA() (pa, word uint32, err error) {
	if m.cpsr.Mode == ModeUsr && m.World() == mem.Secure {
		pa, err = m.translate(m.pc, false, true)
		if err != nil {
			return 0, 0, err
		}
		word, err = m.Phys.Read(pa, mem.Secure)
		return pa, word, err
	}
	word, err = m.Phys.Read(m.pc, m.World())
	return m.pc, word, err
}

// --- The interpreter ---

// Run executes instructions until a trap occurs or budget instructions have
// retired (budget <= 0 means unlimited). On return the machine has already
// performed architectural exception entry for architectural traps; for
// TrapHalt and TrapBudget the state is simply frozen at the current PC.
func (m *Machine) Run(budget int64) Trap {
	for n := int64(0); budget <= 0 || n < budget; n++ {
		// Interrupt injection countdown.
		if m.irqCountdown > 0 {
			m.irqCountdown--
			if m.irqCountdown == 0 {
				m.irqPending = true
				m.irqCountdown = -1
			}
		} else if m.irqCountdown == 0 {
			m.irqPending = true
			m.irqCountdown = -1
		}
		// Take pending interrupts if unmasked. The return address is the
		// not-yet-executed instruction.
		if m.fiqPending && !m.cpsr.F {
			m.fiqPending = false
			m.TakeException(TrapFIQ, m.pc)
			return Trap{Kind: TrapFIQ}
		}
		if m.irqPending && !m.cpsr.I {
			m.irqPending = false
			m.TakeException(TrapIRQ, m.pc)
			return Trap{Kind: TrapIRQ}
		}

		// Superblock fast path: only while interrupt delivery is quiescent
		// (nothing pending, no injection countdown armed — so the
		// per-instruction checks above are provably no-ops for the whole
		// block) and tracing is off. One dispatch stands in for `started`
		// iterations of this loop.
		if !m.bc.disabled && m.TraceFn == nil && !m.probeActive() &&
			m.irqCountdown < 0 && !m.irqPending && !m.fiqPending {
			var remaining int64
			if budget > 0 {
				remaining = budget - n
			}
			started, t, stop := m.blockDispatch(remaining)
			if stop {
				return t
			}
			if started > 0 {
				n += started - 1
				continue
			}
			// Dispatch declined; fall through to the single-instruction path.
		}

		_, word, err := m.fetchPA()
		if err != nil {
			m.TakeException(TrapPrefetchAbort, m.pc)
			return Trap{Kind: TrapPrefetchAbort, FaultAddr: m.pc, FaultErr: err}
		}
		insn, err := Decode(word)
		if err != nil {
			m.TakeException(TrapUndef, m.pc)
			return Trap{Kind: TrapUndef, FaultAddr: m.pc, FaultErr: err}
		}
		if m.TraceFn != nil {
			m.TraceFn(m.pc, insn)
		}
		if m.probeActive() {
			// May park this goroutine until a debugger releases it; the
			// instruction executes after release, so the frozen PC is the
			// not-yet-executed instruction.
			m.probeFn(m.pc, &insn)
		}
		if badReg(insn) {
			err := fmt.Errorf("arm: invalid register encoding at pc=%#x", m.pc)
			m.TakeException(TrapUndef, m.pc)
			return Trap{Kind: TrapUndef, FaultAddr: m.pc, FaultErr: err}
		}
		if t, stop := m.step(&insn); stop {
			return t
		}
		m.retired++
		m.insnClass[classOf[insn.Op]]++
		m.Cyc.Charge(cycles.Insn)
	}
	return Trap{Kind: TrapBudget}
}

// step executes one decoded instruction. It returns (trap, true) when
// execution must stop. The pointer parameter avoids copying the Instr on
// the block cache's fused loop, which steps straight out of the cached
// slice; step must not mutate it.
func (m *Machine) step(i *Instr) (Trap, bool) {
	pcNext := m.pc + 4
	faultPC := m.pc

	undef := func(cause string) (Trap, bool) {
		err := fmt.Errorf("arm: %s at pc=%#x", cause, faultPC)
		m.TakeException(TrapUndef, faultPC)
		return Trap{Kind: TrapUndef, FaultAddr: faultPC, FaultErr: err}, true
	}
	dabort := func(addr uint32, err error) (Trap, bool) {
		m.TakeException(TrapDataAbort, faultPC)
		return Trap{Kind: TrapDataAbort, FaultAddr: addr, FaultErr: err}, true
	}
	// badReg validation happens in the callers (Run's slow path and the
	// block cache's step fallback) so the fused fast path never pays for
	// it: fast-eligible instructions are register-bounded by construction.
	priv := m.cpsr.Mode.Privileged()

	switch i.Op {
	case OpNOP, OpDSB, OpISB:
		// barriers are architectural no-ops in this model

	case OpMOVW:
		m.SetReg(i.Rd, i.Imm)
	case OpMOVT:
		m.SetReg(i.Rd, i.Imm<<16|m.Reg(i.Rd)&0xffff)
	case OpMOV:
		m.SetReg(i.Rd, m.Reg(i.Rm))
	case OpMVN:
		m.SetReg(i.Rd, ^m.Reg(i.Rm))

	case OpADD:
		m.SetReg(i.Rd, m.Reg(i.Rn)+m.Reg(i.Rm))
	case OpSUB:
		m.SetReg(i.Rd, m.Reg(i.Rn)-m.Reg(i.Rm))
	case OpRSB:
		m.SetReg(i.Rd, m.Reg(i.Rm)-m.Reg(i.Rn))
	case OpMUL:
		m.SetReg(i.Rd, m.Reg(i.Rn)*m.Reg(i.Rm))
	case OpAND:
		m.SetReg(i.Rd, m.Reg(i.Rn)&m.Reg(i.Rm))
	case OpORR:
		m.SetReg(i.Rd, m.Reg(i.Rn)|m.Reg(i.Rm))
	case OpEOR:
		m.SetReg(i.Rd, m.Reg(i.Rn)^m.Reg(i.Rm))
	case OpBIC:
		m.SetReg(i.Rd, m.Reg(i.Rn)&^m.Reg(i.Rm))
	case OpLSL:
		m.SetReg(i.Rd, m.Reg(i.Rn)<<(m.Reg(i.Rm)&31))
	case OpLSR:
		m.SetReg(i.Rd, m.Reg(i.Rn)>>(m.Reg(i.Rm)&31))
	case OpASR:
		m.SetReg(i.Rd, uint32(int32(m.Reg(i.Rn))>>(m.Reg(i.Rm)&31)))
	case OpROR:
		sh := m.Reg(i.Rm) & 31
		v := m.Reg(i.Rn)
		m.SetReg(i.Rd, v>>sh|v<<((32-sh)&31))

	case OpADDI:
		m.SetReg(i.Rd, m.Reg(i.Rn)+i.Imm)
	case OpSUBI:
		m.SetReg(i.Rd, m.Reg(i.Rn)-i.Imm)
	case OpRSBI:
		m.SetReg(i.Rd, i.Imm-m.Reg(i.Rn))
	case OpANDI:
		m.SetReg(i.Rd, m.Reg(i.Rn)&i.Imm)
	case OpORRI:
		m.SetReg(i.Rd, m.Reg(i.Rn)|i.Imm)
	case OpEORI:
		m.SetReg(i.Rd, m.Reg(i.Rn)^i.Imm)
	case OpBICI:
		m.SetReg(i.Rd, m.Reg(i.Rn)&^i.Imm)
	case OpLSLI:
		m.SetReg(i.Rd, m.Reg(i.Rn)<<(i.Imm&31))
	case OpLSRI:
		m.SetReg(i.Rd, m.Reg(i.Rn)>>(i.Imm&31))
	case OpASRI:
		m.SetReg(i.Rd, uint32(int32(m.Reg(i.Rn))>>(i.Imm&31)))
	case OpRORI:
		sh := i.Imm & 31
		v := m.Reg(i.Rn)
		m.SetReg(i.Rd, v>>sh|v<<((32-sh)&31))

	case OpCMP:
		m.setCmpFlags(m.Reg(i.Rn), m.Reg(i.Rm))
	case OpCMPI:
		m.setCmpFlags(m.Reg(i.Rn), i.Imm)
	case OpTST:
		m.setTstFlags(m.Reg(i.Rn) & m.Reg(i.Rm))
	case OpTSTI:
		m.setTstFlags(m.Reg(i.Rn) & i.Imm)

	case OpLDR, OpLDRR:
		addr := m.Reg(i.Rn) + i.Imm
		if i.Op == OpLDRR {
			addr = m.Reg(i.Rn) + m.Reg(i.Rm)
		}
		v, err := m.memRead(addr)
		if err != nil {
			return dabort(addr, err)
		}
		m.SetReg(i.Rd, v)
	case OpSTR, OpSTRR:
		addr := m.Reg(i.Rn) + i.Imm
		if i.Op == OpSTRR {
			addr = m.Reg(i.Rn) + m.Reg(i.Rm)
		}
		if err := m.memWrite(addr, m.Reg(i.Rd)); err != nil {
			return dabort(addr, err)
		}

	case OpB:
		if i.Cond.Holds(m.cpsr) {
			pcNext = uint32(int64(m.pc) + 4 + int64(i.Off)*4)
		}
	case OpBL:
		m.SetReg(LR, pcNext)
		pcNext = uint32(int64(m.pc) + 4 + int64(i.Off)*4)
	case OpBX:
		pcNext = m.Reg(i.Rm)

	case OpHLT:
		if m.World() == mem.Secure && !priv {
			return undef("HLT in secure user mode")
		}
		return Trap{Kind: TrapHalt}, true

	case OpSVC:
		m.TakeException(TrapSVC, pcNext)
		return Trap{Kind: TrapSVC}, true
	case OpSMC:
		if !priv {
			// SMC is undefined in user mode on ARM; in particular an
			// enclave may not world-switch (Komodo enclaves use SVC).
			return undef("SMC in user mode")
		}
		m.TakeException(TrapSMC, pcNext)
		return Trap{Kind: TrapSMC}, true

	case OpMRS:
		switch i.Imm {
		case 0: // CPSR read is allowed in user mode (flags are visible)
			m.SetReg(i.Rd, m.encodePSR(m.cpsr))
		case 1:
			if !priv {
				return undef("MRS SPSR in user mode")
			}
			m.SetReg(i.Rd, m.encodePSR(m.spsr[m.cpsr.Mode]))
		default:
			return undef("MRS with unknown selector")
		}
	case OpMSR:
		if !priv {
			return undef("MSR in user mode")
		}
		switch i.Imm {
		case 0:
			p := m.decodePSR(m.Reg(i.Rn))
			p.Mode = m.cpsr.Mode // mode changes only via exceptions/returns
			m.cpsr = p
		case 1:
			m.spsr[m.cpsr.Mode] = m.decodePSR(m.Reg(i.Rn))
		default:
			return undef("MSR with unknown selector")
		}

	case OpRDSYS:
		if !priv {
			return undef("RDSYS in user mode")
		}
		switch i.Imm {
		case SysTTBR0:
			m.SetReg(i.Rd, m.ttbr0[m.World()])
		case SysTTBR1:
			m.SetReg(i.Rd, m.ttbr1)
		case SysVBAR:
			m.SetReg(i.Rd, m.vbar)
		case SysMVBAR:
			m.SetReg(i.Rd, m.mvbar)
		case SysSCR:
			if m.cpsr.Mode != ModeMon {
				return undef("SCR read outside monitor mode")
			}
			var v uint32
			if m.scrNS {
				v = 1
			}
			m.SetReg(i.Rd, v)
		case SysRNG:
			if m.World() != mem.Secure {
				return undef("RNG read from normal world")
			}
			m.Cyc.Charge(cycles.RNGWord)
			m.SetReg(i.Rd, m.RNG.Word())
		default:
			return undef("RDSYS of unknown system register")
		}
	case OpWRSYS:
		if !priv {
			return undef("WRSYS in user mode")
		}
		v := m.Reg(i.Rn)
		switch i.Imm {
		case SysTTBR0:
			m.SetTTBR0(m.World(), v)
		case SysTTBR1:
			m.ttbr1 = v
		case SysVBAR:
			m.vbar = v
		case SysMVBAR:
			if m.cpsr.Mode != ModeMon {
				return undef("MVBAR write outside monitor mode")
			}
			m.mvbar = v
		case SysSCR:
			if m.cpsr.Mode != ModeMon {
				return undef("SCR write outside monitor mode")
			}
			m.scrNS = v&1 != 0
		case SysTLBIALL:
			m.TLB.Flush()
			m.Cyc.Charge(cycles.TLBFlush)
		default:
			return undef("WRSYS of unknown system register")
		}

	case OpCPSID:
		if !priv {
			return undef("CPSID in user mode")
		}
		m.cpsr.I = true
	case OpCPSIE:
		if !priv {
			return undef("CPSIE in user mode")
		}
		m.cpsr.I = false

	case OpMOVSPCLR:
		if !priv {
			return undef("MOVS PC, LR in user mode")
		}
		m.ExceptionReturn()
		return Trap{}, false // PC/CPSR already updated; skip pcNext below

	default:
		return undef(fmt.Sprintf("unimplemented opcode %v", i.Op))
	}

	m.pc = pcNext
	return Trap{}, false
}

// regCheckKind precomputes, per opcode, which register fields must be
// validated against the unassigned encoding 15 (a table lookup: badReg is
// on the interpreter's per-instruction path).
var regCheckKind = func() [numOps]uint8 {
	var t [numOps]uint8 // 0 = none, 1 = rd only, 2 = rd/rn/rm
	for op := Op(0); op < numOps; op++ {
		switch op {
		case OpB, OpBL, OpNOP, OpHLT, OpSVC, OpSMC, OpCPSID, OpCPSIE, OpMOVSPCLR, OpDSB, OpISB:
			t[op] = 0
		case OpMOVW, OpMOVT:
			t[op] = 1
		default:
			t[op] = 2
		}
	}
	return t
}()

// badReg rejects instruction words whose register fields decoded to the
// unassigned encoding 15 in formats that use them.
func badReg(i Instr) bool {
	switch regCheckKind[i.Op] {
	case 0:
		return false
	case 1:
		return i.Rd >= numRegs
	default:
		return i.Rd >= numRegs || i.Rn >= numRegs || i.Rm >= numRegs
	}
}

func (m *Machine) setCmpFlags(a, b uint32) {
	r := a - b
	m.cpsr.N = r&0x8000_0000 != 0
	m.cpsr.Z = r == 0
	m.cpsr.C = a >= b // no borrow
	m.cpsr.V = (a^b)&0x8000_0000 != 0 && (a^r)&0x8000_0000 != 0
}

func (m *Machine) setTstFlags(r uint32) {
	m.cpsr.N = r&0x8000_0000 != 0
	m.cpsr.Z = r == 0
}

// PSR word encoding for MRS/MSR: N=31 Z=30 C=29 V=28 I=7 F=6, mode in low
// bits (read-only through MSR).
func (m *Machine) encodePSR(p PSR) uint32 {
	var v uint32
	if p.N {
		v |= 1 << 31
	}
	if p.Z {
		v |= 1 << 30
	}
	if p.C {
		v |= 1 << 29
	}
	if p.V {
		v |= 1 << 28
	}
	if p.I {
		v |= 1 << 7
	}
	if p.F {
		v |= 1 << 6
	}
	v |= uint32(p.Mode)
	return v
}

func (m *Machine) decodePSR(v uint32) PSR {
	mode := Mode(v & 0xf)
	if mode >= numModes {
		// Unassigned mode encodings collapse to user; a later exception
		// return to such a PSR must not corrupt banked-register indexing.
		mode = ModeUsr
	}
	return PSR{
		N:    v&(1<<31) != 0,
		Z:    v&(1<<30) != 0,
		C:    v&(1<<29) != 0,
		V:    v&(1<<28) != 0,
		I:    v&(1<<7) != 0,
		F:    v&(1<<6) != 0,
		Mode: mode,
	}
}
