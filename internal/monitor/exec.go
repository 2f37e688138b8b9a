package monitor

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cycles"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/pagedb"
)

// smcEnter implements Enter and Resume: the only SMCs involving enclave
// execution. It realises the state machine of the paper's Figure 3: enter
// user mode with MOVS PC, LR from a highly constrained state (page-table
// base loaded, TLB consistent, registers loaded from the thread context),
// then loop — handle SVCs and re-enter, until an exit, interrupt, or fault
// transfers control back to the OS.
func (k *Monitor) smcEnter(thrPg, a1, a2, a3 uint32, resume bool) (kapi.Err, uint32, error) {
	m := k.m

	// Validation (same order as spec.ValidateEnter/ValidateResume).
	if !k.validPage(thrPg) {
		e, v := err1(kapi.ErrInvalidPageNo)
		return e, v, nil
	}
	th := pagedb.PageNr(thrPg)
	if k.pdType(th) != ctThread {
		e, v := err1(kapi.ErrNotThread)
		return e, v, nil
	}
	as := k.pdOwner(th)
	if k.asState(as) != csFinal {
		e, v := err1(kapi.ErrNotFinal)
		return e, v, nil
	}
	entered := k.thEntered(th)
	if resume && !entered {
		e, v := err1(kapi.ErrNotEntered)
		return e, v, nil
	}
	if !resume && entered {
		e, v := err1(kapi.ErrAlreadyEntered)
		return e, v, nil
	}

	// Save the full normal-world context the enclave must not observe or
	// influence: the OS's view of every banked register is restored on
	// exit (§8.1: the unoptimised prototype "saves and restores every
	// banked register").
	osCtx := k.saveOSContext()
	if !k.optimised {
		m.Cyc.Charge(cycles.BankedRegSave)
	}

	// Constrain the machine exactly as the specification demands at user
	// entry (§5.2): secure world (SCR.NS = 0 — enclaves run in secure
	// user mode, Figure 1), enclave page table in TTBR0, consistent TLB,
	// register file loaded from the PageDB.
	m.SetSCRNS(false)
	l1, _ := k.asL1PT(as)
	l1Base := k.physPage(l1)
	if k.optimised && m.TTBR0(mem.Secure) == l1Base && m.TLB.Consistent() {
		// §8.1 optimisation: repeated invocation of the same enclave with
		// untouched page tables needs no flush (the correctness argument
		// is exactly the TLB-consistency obligation of §5.1: every cached
		// translation still matches the tables).
		m.SetPageTablePages(k.pageTablePages(as))
	} else {
		m.SetTTBR0(mem.Secure, l1Base)
		m.SetPageTablePages(k.pageTablePages(as))
		m.TLB.Flush()
		m.Cyc.Charge(cycles.TLBFlush)
	}

	if resume {
		// Resume leaves the thread suspended=false once running again.
		k.thSetEntered(th, false)
		k.loadUserCtx(th)
		m.Cyc.Charge(cycles.CtxRestore)
	} else {
		// Entry: PC at the entry point, parameters in R0–R2, every other
		// user register zeroed.
		for r := arm.R0; r <= arm.R12; r++ {
			m.SetReg(r, 0)
		}
		m.SetReg(arm.R0, a1)
		m.SetReg(arm.R1, a2)
		m.SetReg(arm.R2, a3)
		m.SetRegBanked(arm.ModeUsr, arm.SP, 0)
		m.SetRegBanked(arm.ModeUsr, arm.LR, 0)
		m.SetSPSR(arm.ModeMon, arm.PSR{Mode: arm.ModeUsr}) // interrupts enabled
		m.SetRegBanked(arm.ModeMon, arm.LR, k.thEntry(th))
		m.Cyc.Charge(cycles.UserRegLoad)
		m.ExceptionReturn() // MOVS PC, LR into secure user mode
	}

	// Probe for the Table 3 "Enter only"/"Resume only" rows: everything
	// up to here is the cost of reaching the first enclave instruction.
	k.LastEnterSetup = m.Cyc.Total() - k.smcStartCyc
	k.tel.ObserveEnterSetup(resume, k.LastEnterSetup)

	// The enclave-execution loop ("while (!done) { MOVS_PC_LR(); }",
	// §7.2 — ours is structured, the prototype's used the SP low bit).
	for {
		tr := m.Run(k.ExecBudget)
		switch tr.Kind {
		case arm.TrapSVC:
			call := m.Reg(arm.R0)
			if call == kapi.SVCExit {
				retval := m.Reg(arm.R1)
				k.tel.ObserveSVC(call, uint32(kapi.ErrSuccess), 0)
				k.recordEvent(kapi.ExecEvent{Kind: kapi.EventExit, ExitVal: retval})
				// "the enclave's registers are not saved, permitting it
				// to be re-entered" (§4).
				k.restoreOSContext(&osCtx)
				return kapi.ErrSuccess, retval, nil
			}
			if call == kapi.SVCFaultReturn && k.thInHandler(th) {
				// Dispatcher extension: resume the context interrupted by
				// the handled fault. (Outside a handler, the call falls
				// through to the generic dispatch and is rejected.)
				k.tel.ObserveSVC(call, uint32(kapi.ErrSuccess), 0)
				k.thSetInHandler(th, false)
				k.recordEvent(kapi.ExecEvent{
					Kind: kapi.EventSVC, Call: call,
					Args: k.readSVCArgs(), Res: kapi.ErrSuccess,
				})
				// The return path runs from monitor mode, like Resume.
				cp := m.CPSR()
				cp.Mode = arm.ModeMon
				m.SetCPSR(cp)
				k.loadUserCtx(th) // restores registers and MOVS back
				m.Cyc.Charge(cycles.CtxRestore)
				continue
			}
			var args [8]uint32
			for i := 0; i < 8; i++ {
				args[i] = m.Reg(arm.Reg(1 + i))
			}
			svcStart := m.Cyc.Total()
			errc, vals := k.dispatchSVC(th, as, call, args)
			k.tel.ObserveSVC(call, uint32(errc), m.Cyc.Total()-svcStart)
			k.recordEvent(kapi.ExecEvent{Kind: kapi.EventSVC, Call: call, Args: args, Res: errc, Vals: vals})
			m.SetReg(arm.R0, uint32(errc))
			for i := 0; i < 8; i++ {
				m.SetReg(arm.Reg(1+i), vals[i])
			}
			m.Cyc.Charge(cycles.EretToUser)
			m.ExceptionReturn() // back into the enclave

		case arm.TrapIRQ, arm.TrapFIQ:
			// Suspend: save user context in the thread page and mark it
			// entered (§4).
			k.saveUserCtx(th)
			k.thSetEntered(th, true)
			m.Cyc.Charge(cycles.UserRegSave)
			exit := kapi.ExitIRQ
			kind := kapi.EventIRQ
			if tr.Kind == arm.TrapFIQ {
				exit = kapi.ExitFIQ
				kind = kapi.EventFIQ
			}
			k.recordEvent(kapi.ExecEvent{Kind: kind})
			k.restoreOSContext(&osCtx)
			return kapi.ErrInterrupted, exit, nil

		case arm.TrapDataAbort, arm.TrapPrefetchAbort, arm.TrapUndef:
			var exit uint32
			switch tr.Kind {
			case arm.TrapDataAbort:
				exit = kapi.ExitDataAbort
			case arm.TrapPrefetchAbort:
				exit = kapi.ExitPrefAbort
			default:
				exit = kapi.ExitUndef
			}
			// Dispatcher extension (§9.2): a registered fault handler
			// receives the exception as a user-mode upcall — the fault is
			// never exposed to the untrusted OS. A fault while already in
			// the handler is terminal (no livelock).
			if handler := k.thHandler(th); handler != 0 && !k.thInHandler(th) {
				k.saveUserCtx(th) // interrupted context, incl. the fault PC
				k.thSetInHandler(th, true)
				m.Cyc.Charge(cycles.UserRegSave)
				k.recordEvent(kapi.ExecEvent{Kind: kapi.EventFaultHandled, FaultType: exit})
				// Upcall register state: exception type and faulting
				// address (the enclave's own information), user SP
				// preserved for the handler's stack, everything else
				// cleared.
				for r := arm.R0; r <= arm.R12; r++ {
					m.SetReg(r, 0)
				}
				m.SetReg(arm.R0, exit)
				m.SetReg(arm.R1, tr.FaultAddr)
				m.SetSPSR(arm.ModeMon, arm.PSR{Mode: arm.ModeUsr})
				m.SetRegBanked(arm.ModeMon, arm.LR, handler)
				cp := m.CPSR()
				cp.Mode = arm.ModeMon
				m.SetCPSR(cp)
				m.Cyc.Charge(cycles.EretToUser)
				m.ExceptionReturn()
				continue
			}
			// No handler: "the thread simply exits with an error code
			// (but no other information, to avoid side-channel leaks)"
			// (§4). The monitor must not forward the faulting address.
			k.thSetEntered(th, false)
			k.recordEvent(kapi.ExecEvent{Kind: kapi.EventFault, FaultType: exit})
			k.restoreOSContext(&osCtx)
			return kapi.ErrFault, exit, nil

		case arm.TrapBudget:
			k.restoreOSContext(&osCtx)
			return 0, 0, fmt.Errorf("monitor: enclave exceeded execution budget of %d instructions", k.ExecBudget)

		default:
			k.restoreOSContext(&osCtx)
			return 0, 0, fmt.Errorf("monitor: unexpected trap %v during enclave execution", tr.Kind)
		}
	}
}

func (k *Monitor) recordEvent(ev kapi.ExecEvent) {
	if k.recording {
		k.trace = append(k.trace, ev)
	}
}

// bankedModes are the normal-world modes whose banked registers an
// osContext saves.
var bankedModes = [...]arm.Mode{arm.ModeUsr, arm.ModeSvc, arm.ModeAbt, arm.ModeUnd, arm.ModeIrq, arm.ModeFiq}

// osContext is the normal-world register state saved across enclave
// execution. The banked registers and SPSRs are indexed like bankedModes
// (the user mode has no SPSR; its slot is unused).
type osContext struct {
	r       [13]uint32
	banked  [len(bankedModes)][2]uint32 // SP, LR per mode
	spsr    [len(bankedModes)]arm.PSR
	monLR   uint32
	monSP   uint32
	monSPSR arm.PSR
	ttbr0N  uint32
}

func (k *Monitor) saveOSContext() osContext {
	m := k.m
	c := osContext{
		monLR:   m.RegBanked(arm.ModeMon, arm.LR),
		monSP:   m.RegBanked(arm.ModeMon, arm.SP),
		monSPSR: m.SPSR(arm.ModeMon),
		ttbr0N:  m.TTBR0(mem.Normal),
	}
	for i := range c.r {
		c.r[i] = m.Reg(arm.Reg(i))
	}
	for i, md := range bankedModes {
		c.banked[i] = [2]uint32{m.RegBanked(md, arm.SP), m.RegBanked(md, arm.LR)}
		if md != arm.ModeUsr {
			c.spsr[i] = m.SPSR(md)
		}
	}
	return c
}

// restoreOSContext puts the machine back in monitor mode with the OS's
// registers intact, ready for HandleSMC's result write-back and exception
// return. User-visible registers the enclave wrote are cleared here and
// rewritten by HandleSMC — nothing of the enclave's register state
// survives into the OS's view (the confidentiality obligation of §6.1).
func (k *Monitor) restoreOSContext(c *osContext) {
	m := k.m
	cp := m.CPSR()
	cp.Mode = arm.ModeMon
	cp.I = true
	m.SetCPSR(cp)
	// World switch back: the exception return from monitor mode lands in
	// the normal world.
	m.SetSCRNS(true)
	for i := range c.r {
		m.SetReg(arm.Reg(i), c.r[i])
	}
	for i, md := range bankedModes {
		m.SetRegBanked(md, arm.SP, c.banked[i][0])
		m.SetRegBanked(md, arm.LR, c.banked[i][1])
		if md != arm.ModeUsr {
			m.SetSPSR(md, c.spsr[i])
		}
	}
	m.SetRegBanked(arm.ModeMon, arm.LR, c.monLR)
	m.SetRegBanked(arm.ModeMon, arm.SP, c.monSP)
	m.SetSPSR(arm.ModeMon, c.monSPSR)
	// Restoring the normal-world TTBR0 bank must not disturb the secure
	// bank, whose value the optimised fast path compares on re-entry;
	// SetTTBR0 would also mark the TLB inconsistent, so write the bank
	// only if it changed (the OS model never loads it).
	if m.TTBR0(mem.Normal) != c.ttbr0N {
		m.SetTTBR0(mem.Normal, c.ttbr0N)
	}
	m.SetPageTablePages(nil)
	if k.optimised {
		// Keep the departing enclave's translations cached: the entry
		// fast path re-validates them via TTBR0 + TLB consistency. The
		// normal world runs untranslated, so they are unreachable there.
		return
	}
	// Flush translations of the departing enclave so nothing lingers for
	// the next one (the unoptimised prototype flushes on every crossing,
	// §8.1).
	m.TLB.Flush()
	m.Cyc.Charge(cycles.BankedRegSave)
}

// saveUserCtx stores the user-visible register context into the thread
// page (interrupt suspension).
func (k *Monitor) saveUserCtx(th pagedb.PageNr) {
	m := k.m
	base := k.physPage(th)
	for i := 0; i < 13; i++ {
		k.wr(base+thOffR0+uint32(i*4), m.Reg(arm.Reg(i)))
	}
	k.wr(base+thOffSP, m.RegBanked(arm.ModeUsr, arm.SP))
	k.wr(base+thOffLR, m.RegBanked(arm.ModeUsr, arm.LR))
	// The pre-exception PC was preserved in the banked LR of the mode the
	// interrupt was taken to (§5.1).
	k.wr(base+thOffPC, m.RegBanked(m.CPSR().Mode, arm.LR))
	k.wr(base+thOffCPSR, encodeFlags(m.SPSR(m.CPSR().Mode)))
}

// loadUserCtx restores a suspended thread's context and performs the
// exception return into user mode.
func (k *Monitor) loadUserCtx(th pagedb.PageNr) {
	m := k.m
	base := k.physPage(th)
	for i := 0; i < 13; i++ {
		m.SetReg(arm.Reg(i), k.rd(base+thOffR0+uint32(i*4)))
	}
	m.SetRegBanked(arm.ModeUsr, arm.SP, k.rd(base+thOffSP))
	m.SetRegBanked(arm.ModeUsr, arm.LR, k.rd(base+thOffLR))
	psr := decodeFlags(k.rd(base + thOffCPSR))
	psr.Mode = arm.ModeUsr
	psr.I = false
	m.SetSPSR(arm.ModeMon, psr)
	m.SetRegBanked(arm.ModeMon, arm.LR, k.rd(base+thOffPC))
	m.ExceptionReturn()
}

// encodeFlags/decodeFlags pack the NZCV condition flags into the PSR word
// encoding used in the thread page.
func encodeFlags(p arm.PSR) uint32 {
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
	return v
}

func decodeFlags(v uint32) arm.PSR {
	return arm.PSR{
		N: v&(1<<31) != 0,
		Z: v&(1<<30) != 0,
		C: v&(1<<29) != 0,
		V: v&(1<<28) != 0,
	}
}

// pageTablePages collects the physical pages of an address space's page
// tables, so user-mode stores to them (impossible under the invariants,
// but modelled) mark the TLB inconsistent. It reads the L1 table in one
// bulk copy, charged as the 256 word reads it models, and collects into
// the monitor's reused buffer: the result is valid until the next call,
// and pages may repeat.
func (k *Monitor) pageTablePages(as pagedb.PageNr) []uint32 {
	out := k.ptPages[:0]
	l1, set := k.asL1PT(as)
	if !set {
		return out
	}
	l1Base := k.physPage(l1)
	out = append(out, l1Base)
	var table [256]uint32
	if err := k.m.Phys.ReadWords(l1Base, table[:], mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: secure read %#x: %v", l1Base, err))
	}
	k.m.Cyc.ChargeN(cycles.WordRead, len(table))
	for _, e := range table {
		if e&1 != 0 {
			out = append(out, e&^uint32(mem.PageSize-1))
		}
	}
	k.ptPages = out
	return out
}
