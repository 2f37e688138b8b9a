package arm_test

import (
	"errors"
	"testing"

	. "repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/rng"
)

// newTestMachine loads the program into insecure RAM and prepares the
// machine to run it in normal-world supervisor mode (privileged,
// untranslated) at the load address.
func newTestMachine(t *testing.T, p *asm.Program) *Machine {
	t.Helper()
	phys, err := mem.NewPhysical(mem.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(phys, rng.New(1))
	base := phys.Layout().InsecureBase
	img, err := p.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range img {
		if err := phys.Write(base+uint32(i)*4, w, mem.Normal); err != nil {
			t.Fatal(err)
		}
	}
	m.SetSCRNS(true) // normal world
	m.SetCPSR(PSR{Mode: ModeSvc, I: true, F: true})
	m.SetPC(base)
	return m
}

func runToHalt(t *testing.T, m *Machine) {
	t.Helper()
	tr := m.Run(100000)
	if tr.Kind != TrapHalt {
		t.Fatalf("run stopped with %v (fault %v at %#x), want halt", tr.Kind, tr.FaultErr, tr.FaultAddr)
	}
}

func TestArithmetic(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 10).
		MovImm32(R1, 3).
		Add(R2, R0, R1). // 13
		Sub(R3, R0, R1). // 7
		Rsb(R4, R1, R0). // r0 - r1 = 7
		Mul(R5, R0, R1). // 30
		And(R6, R0, R1). // 2
		Orr(R7, R0, R1). // 11
		Eor(R8, R0, R1). // 9
		Bic(R9, R0, R1). // 10 &^ 3 = 8
		Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	want := map[Reg]uint32{R2: 13, R3: 7, R4: 7, R5: 30, R6: 2, R7: 11, R8: 9, R9: 8}
	for r, v := range want {
		if got := m.Reg(r); got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestShifts(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x80000001).
		LslI(R1, R0, 4).
		LsrI(R2, R0, 4).
		AsrI(R3, R0, 4).
		RorI(R4, R0, 1).
		MovImm32(R5, 8).
		Lsl(R6, R0, R5).
		Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R1) != 0x10 {
		t.Errorf("lsl = %#x", m.Reg(R1))
	}
	if m.Reg(R2) != 0x08000000 {
		t.Errorf("lsr = %#x", m.Reg(R2))
	}
	if m.Reg(R3) != 0xf8000000 {
		t.Errorf("asr = %#x", m.Reg(R3))
	}
	if m.Reg(R4) != 0xc0000000 {
		t.Errorf("ror = %#x", m.Reg(R4))
	}
	if m.Reg(R6) != 0x00000100 {
		t.Errorf("lsl reg = %#x", m.Reg(R6))
	}
}

func TestMovtComposesWithMovw(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0xdeadbeef).Mvn(R1, R0).Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R0) != 0xdeadbeef {
		t.Errorf("movw/movt = %#x", m.Reg(R0))
	}
	if m.Reg(R1) != ^uint32(0xdeadbeef) {
		t.Errorf("mvn = %#x", m.Reg(R1))
	}
}

func TestConditionalBranches(t *testing.T) {
	// Count 0..9 with a loop; result in R1.
	p := asm.New()
	p.Movw(R0, 0). // i
			Movw(R1, 0). // sum
			Label("loop").
			Add(R1, R1, R0).
			AddI(R0, R0, 1).
			CmpI(R0, 10).
			Blt("loop").
			Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R1) != 45 {
		t.Errorf("sum 0..9 = %d, want 45", m.Reg(R1))
	}
}

func TestFlagSemantics(t *testing.T) {
	cases := []struct {
		a, b uint32
		cond Cond
		take bool
	}{
		{5, 5, CondEQ, true},
		{5, 6, CondNE, true},
		{6, 5, CondHI, true},
		{5, 6, CondCC, true},          // unsigned <
		{5, 6, CondLT, true},          // signed <
		{0xffffffff, 1, CondLT, true}, // -1 < 1 signed
		{0xffffffff, 1, CondHI, true}, // huge > 1 unsigned
		{0x80000000, 1, CondVS, true}, // MIN_INT - 1 overflows
		{7, 3, CondGT, true},
		{3, 7, CondLE, true},
		{5, 5, CondGE, true},
	}
	for i, c := range cases {
		p := asm.New()
		p.MovImm32(R0, c.a).
			MovImm32(R1, c.b).
			Cmp(R0, R1).
			Movw(R2, 0).
			BCond(c.cond, "taken").
			Hlt().
			Label("taken").
			Movw(R2, 1).
			Hlt()
		m := newTestMachine(t, p)
		runToHalt(t, m)
		if got := m.Reg(R2) == 1; got != c.take {
			t.Errorf("case %d: cmp(%#x,%#x) %v taken=%v, want %v", i, c.a, c.b, c.cond, got, c.take)
		}
	}
}

func TestTstSetsZN(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0xf0).
		TstI(R0, 0x0f). // zero
		Movw(R1, 0).
		Beq("z").
		Hlt().
		Label("z").Movw(R1, 1).Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R1) != 1 {
		t.Error("TST of disjoint masks did not set Z")
	}
}

func TestSubroutineCallAndReturn(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 5).
		Bl("double").
		Bl("double").
		Hlt().
		Label("double").
		Add(R0, R0, R0).
		Ret()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R0) != 20 {
		t.Errorf("double(double(5)) = %d", m.Reg(R0))
	}
}

func TestLoadStore(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x8000_1000). // scratch in insecure RAM
					MovImm32(R1, 0xcafe).
					Str(R1, R0, 0).
					Str(R1, R0, 8).
					Ldr(R2, R0, 0).
					Movw(R3, 8).
					LdrR(R4, R0, R3).
					Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Reg(R2) != 0xcafe || m.Reg(R4) != 0xcafe {
		t.Errorf("loaded %#x / %#x", m.Reg(R2), m.Reg(R4))
	}
}

func TestDataAbortOnSecureAccessFromNormalWorld(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x4000_0000). // secure base
					Ldr(R1, R0, 0).
					Hlt()
	m := newTestMachine(t, p)
	tr := m.Run(1000)
	if tr.Kind != TrapDataAbort {
		t.Fatalf("trap = %v, want data abort", tr.Kind)
	}
	if !errors.Is(tr.FaultErr, mem.ErrSecureViolation) {
		t.Fatalf("fault cause = %v", tr.FaultErr)
	}
	if m.CPSR().Mode != ModeAbt {
		t.Fatalf("mode after abort = %v", m.CPSR().Mode)
	}
}

func TestBankedSPandLR(t *testing.T) {
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	m.SetCPSR(PSR{Mode: ModeSvc})
	m.SetReg(SP, 0x1000)
	m.SetReg(LR, 0x2000)
	m.SetCPSR(PSR{Mode: ModeIrq})
	m.SetReg(SP, 0x3000)
	if m.Reg(SP) != 0x3000 {
		t.Fatal("irq SP lost")
	}
	m.SetCPSR(PSR{Mode: ModeSvc})
	if m.Reg(SP) != 0x1000 || m.Reg(LR) != 0x2000 {
		t.Fatalf("svc bank corrupted: sp=%#x lr=%#x", m.Reg(SP), m.Reg(LR))
	}
	// R0-R12 are shared across modes.
	m.SetReg(R5, 77)
	m.SetCPSR(PSR{Mode: ModeMon})
	if m.Reg(R5) != 77 {
		t.Fatal("R5 not shared across modes")
	}
}

func TestSVCExceptionEntry(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 9).Svc().Hlt()
	m := newTestMachine(t, p)
	base := m.Phys.Layout().InsecureBase
	m.SetVBAR(0x8000_f000)
	tr := m.Run(100)
	if tr.Kind != TrapSVC {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.CPSR().Mode != ModeSvc {
		t.Fatalf("mode = %v", m.CPSR().Mode)
	}
	if !m.CPSR().I {
		t.Fatal("IRQs not masked on exception entry")
	}
	// LR_svc = address after the SVC (word 2 for MOVW at word 0... MOVW is
	// one word here since imm fits, so SVC is word 1, return addr word 2).
	if got := m.RegBanked(ModeSvc, LR); got != base+8 {
		t.Fatalf("LR_svc = %#x, want %#x", got, base+8)
	}
	if m.SPSR(ModeSvc).Mode != ModeSvc {
		// the test machine starts in svc mode, so SPSR holds svc
		t.Fatalf("SPSR mode = %v", m.SPSR(ModeSvc).Mode)
	}
	// Exception return resumes after the SVC.
	m.ExceptionReturn()
	if m.PC() != base+8 {
		t.Fatalf("PC after return = %#x", m.PC())
	}
	tr = m.Run(10)
	if tr.Kind != TrapHalt {
		t.Fatalf("after return: %v", tr.Kind)
	}
}

func TestSMCEntersMonitorModeSecureWorld(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 1).Smc().Hlt()
	m := newTestMachine(t, p) // normal world, svc mode
	tr := m.Run(100)
	if tr.Kind != TrapSMC {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.CPSR().Mode != ModeMon {
		t.Fatalf("mode = %v", m.CPSR().Mode)
	}
	if m.World() != mem.Secure {
		t.Fatal("monitor mode is not secure world")
	}
	// SPSR_mon remembers we came from normal-world svc.
	if m.SPSR(ModeMon).Mode != ModeSvc {
		t.Fatalf("SPSR_mon mode = %v", m.SPSR(ModeMon).Mode)
	}
}

func TestPrivilegedInstructionsTrapInUserMode(t *testing.T) {
	privOps := []func(p *asm.Program){
		func(p *asm.Program) { p.MrsSPSR(R0) },
		func(p *asm.Program) { p.MsrCPSR(R0) },
		func(p *asm.Program) { p.RdSys(R0, SysTTBR0) },
		func(p *asm.Program) { p.WrSys(SysVBAR, R0) },
		func(p *asm.Program) { p.Cpsid() },
		func(p *asm.Program) { p.Cpsie() },
		func(p *asm.Program) { p.MovsPcLr() },
		func(p *asm.Program) { p.Smc() },
	}
	for i, emit := range privOps {
		p := asm.New()
		emit(p)
		p.Hlt()
		m := newTestMachine(t, p)
		// Drop to user mode (normal world) at the same PC.
		c := m.CPSR()
		c.Mode = ModeUsr
		m.SetCPSR(c)
		tr := m.Run(10)
		if tr.Kind != TrapUndef {
			t.Errorf("priv op %d in user mode: trap = %v, want undef", i, tr.Kind)
		}
		if m.CPSR().Mode != ModeUnd {
			t.Errorf("priv op %d: mode = %v, want und", i, m.CPSR().Mode)
		}
	}
}

func TestMRSCPSRAllowedInUserMode(t *testing.T) {
	p := asm.New()
	p.MrsCPSR(R0).Hlt()
	m := newTestMachine(t, p)
	c := m.CPSR()
	c.Mode = ModeUsr
	m.SetCPSR(c)
	runToHalt(t, m)
	if m.Reg(R0)&0xf != uint32(ModeUsr) {
		t.Fatalf("CPSR read = %#x", m.Reg(R0))
	}
}

func TestUndefinedOpcodeTraps(t *testing.T) {
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	base := phys.Layout().InsecureBase
	phys.Write(base, 0xff00_0000, mem.Normal) // opcode 0xff does not exist
	m.SetSCRNS(true)
	m.SetCPSR(PSR{Mode: ModeSvc, I: true})
	m.SetPC(base)
	tr := m.Run(10)
	if tr.Kind != TrapUndef {
		t.Fatalf("trap = %v", tr.Kind)
	}
}

func TestHLTUndefinedInSecureUserMode(t *testing.T) {
	// An enclave must not be able to stop the machine.
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	// Build a one-page enclave: L1 at page 0, L2 at page 1, code at page 2.
	l1 := phys.SecurePageBase(0)
	l2 := phys.SecurePageBase(1)
	code := phys.SecurePageBase(2)
	va := uint32(0x0000_0000)
	phys.Write(l1+uint32(mmu.L1Index(va))*4, l2|mmu.PteValid, mem.Secure)
	phys.Write(l2+uint32(mmu.L2Index(va))*4, mmu.PTE(code, mmu.Perms{Exec: true}), mem.Secure)
	img, err := asm.New().Hlt().Assemble(va)
	if err != nil {
		t.Fatal(err)
	}
	phys.Write(code, img[0], mem.Secure)
	m.SetSCRNS(false) // secure world
	m.SetTTBR0(mem.Secure, l1)
	m.TLB.Flush()
	m.SetCPSR(PSR{Mode: ModeUsr, I: false})
	m.SetPC(va)
	tr := m.Run(10)
	if tr.Kind != TrapUndef {
		t.Fatalf("HLT in enclave: trap = %v, want undef", tr.Kind)
	}
}

// buildEnclaveMachine maps a code page (X), a data page (RW) and runs the
// given program in secure user mode. Returns the machine and data page PA.
func buildEnclaveMachine(t *testing.T, p *asm.Program) (*Machine, uint32) {
	t.Helper()
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	l1 := phys.SecurePageBase(0)
	l2 := phys.SecurePageBase(1)
	code := phys.SecurePageBase(2)
	data := phys.SecurePageBase(3)
	const codeVA, dataVA = uint32(0x0000_0000), uint32(0x0000_1000)
	phys.Write(l1+uint32(mmu.L1Index(codeVA))*4, l2|mmu.PteValid, mem.Secure)
	phys.Write(l2+uint32(mmu.L2Index(codeVA))*4, mmu.PTE(code, mmu.Perms{Exec: true}), mem.Secure)
	phys.Write(l2+uint32(mmu.L2Index(dataVA))*4, mmu.PTE(data, mmu.Perms{Write: true}), mem.Secure)
	img, err := p.Assemble(codeVA)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) > mem.PageWords {
		t.Fatal("test program exceeds one page")
	}
	for i, w := range img {
		phys.Write(code+uint32(i)*4, w, mem.Secure)
	}
	m.SetSCRNS(false)
	m.SetTTBR0(mem.Secure, l1)
	m.TLB.Flush()
	m.SetCPSR(PSR{Mode: ModeUsr, I: false})
	m.SetPC(codeVA)
	return m, data
}

func TestUserModeTranslation(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x1000). // data VA
				MovImm32(R1, 0xfeed).
				Str(R1, R0, 4).
				Ldr(R2, R0, 4).
				Svc()
	m, data := buildEnclaveMachine(t, p)
	tr := m.Run(100)
	if tr.Kind != TrapSVC {
		t.Fatalf("trap = %v (%v)", tr.Kind, tr.FaultErr)
	}
	if m.Reg(R2) != 0xfeed {
		t.Fatalf("loaded %#x", m.Reg(R2))
	}
	// The store must have landed in the mapped physical page.
	if v, _ := m.Phys.Read(data+4, mem.Secure); v != 0xfeed {
		t.Fatalf("physical data page holds %#x", v)
	}
}

func TestWritePermissionFault(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 0). // code VA is mapped X-only
			Movw(R1, 1).
			Str(R1, R0, 0).
			Svc()
	m, _ := buildEnclaveMachine(t, p)
	tr := m.Run(100)
	if tr.Kind != TrapDataAbort {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if !errors.Is(tr.FaultErr, ErrPerm) {
		t.Fatalf("cause = %v", tr.FaultErr)
	}
}

func TestExecPermissionFault(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x1000).Bx(R0) // jump into the non-executable data page
	m, _ := buildEnclaveMachine(t, p)
	tr := m.Run(100)
	if tr.Kind != TrapPrefetchAbort {
		t.Fatalf("trap = %v", tr.Kind)
	}
}

func TestTranslationFault(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x0080_0000). // unmapped VA
					Ldr(R1, R0, 0).
					Svc()
	m, _ := buildEnclaveMachine(t, p)
	tr := m.Run(100)
	if tr.Kind != TrapDataAbort {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if !errors.Is(tr.FaultErr, mmu.ErrNoMapping) {
		t.Fatalf("cause = %v", tr.FaultErr)
	}
}

func TestStaleTLBEntryVisibleUntilFlush(t *testing.T) {
	// Translate once, then change the PTE behind the TLB's back: the old
	// translation must still be used (the §5.1 hazard), and a flush must
	// pick up the new one.
	p := asm.New()
	p.MovImm32(R0, 0x1000).
		Ldr(R1, R0, 0). // fills TLB for data page
		Svc()
	m, data := buildEnclaveMachine(t, p)
	m.Phys.Write(data, 0x1111, mem.Secure)
	other := m.Phys.SecurePageBase(4)
	m.Phys.Write(other, 0x2222, mem.Secure)
	tr := m.Run(100)
	if tr.Kind != TrapSVC || m.Reg(R1) != 0x1111 {
		t.Fatalf("first run: %v, R1=%#x", tr.Kind, m.Reg(R1))
	}
	// Repoint the data VA at `other` without flushing.
	l2 := m.Phys.SecurePageBase(1)
	m.Phys.Write(l2+uint32(mmu.L2Index(0x1000))*4, mmu.PTE(other, mmu.Perms{Write: true}), mem.Secure)
	m.ExceptionReturn() // back to user, re-runs from after SVC... rewind PC instead
	m.SetCPSR(PSR{Mode: ModeUsr})
	m.SetPC(0)
	tr = m.Run(100)
	if tr.Kind != TrapSVC {
		t.Fatalf("second run: %v", tr.Kind)
	}
	if m.Reg(R1) != 0x1111 {
		t.Fatalf("stale TLB should still see old page: R1=%#x", m.Reg(R1))
	}
	m.TLB.Flush()
	m.SetCPSR(PSR{Mode: ModeUsr})
	m.SetPC(0)
	tr = m.Run(100)
	if tr.Kind != TrapSVC {
		t.Fatalf("third run: %v", tr.Kind)
	}
	if m.Reg(R1) != 0x2222 {
		t.Fatalf("after flush: R1=%#x, want 0x2222", m.Reg(R1))
	}
}

func TestIRQInjection(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 0).
		Label("loop").
		AddI(R0, R0, 1).
		B("loop")
	m, _ := buildEnclaveMachine(t, p)
	m.ScheduleIRQ(50)
	tr := m.Run(1000)
	if tr.Kind != TrapIRQ {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.CPSR().Mode != ModeIrq {
		t.Fatalf("mode = %v", m.CPSR().Mode)
	}
	// Resume: the interrupted loop continues from the banked LR.
	before := m.Reg(R0)
	m.ExceptionReturn()
	m.ScheduleIRQ(50)
	tr = m.Run(1000)
	if tr.Kind != TrapIRQ {
		t.Fatalf("second trap = %v", tr.Kind)
	}
	if m.Reg(R0) <= before {
		t.Fatalf("loop did not progress after resume: %d -> %d", before, m.Reg(R0))
	}
}

func TestIRQMasked(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 0).
		Label("loop").
		AddI(R0, R0, 1).
		CmpI(R0, 100).
		Blt("loop").
		Hlt()
	m := newTestMachine(t, p) // svc mode, I=true (masked)
	m.ScheduleIRQ(10)
	tr := m.Run(10000)
	if tr.Kind != TrapHalt {
		t.Fatalf("masked IRQ was taken: %v", tr.Kind)
	}
	if !m.IRQPending() {
		t.Fatal("IRQ not latched while masked")
	}
}

func TestFIQInjection(t *testing.T) {
	p := asm.New()
	p.Label("loop").B("loop")
	m, _ := buildEnclaveMachine(t, p)
	m.AssertFIQ()
	tr := m.Run(100)
	if tr.Kind != TrapFIQ {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.CPSR().Mode != ModeFiq || !m.CPSR().F {
		t.Fatalf("FIQ entry state: %v", m.CPSR())
	}
}

func TestRunBudget(t *testing.T) {
	p := asm.New()
	p.Label("loop").B("loop")
	m := newTestMachine(t, p)
	tr := m.Run(100)
	if tr.Kind != TrapBudget {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.Retired() != 100 {
		t.Fatalf("retired = %d", m.Retired())
	}
}

func TestRNGSysRegSecureOnly(t *testing.T) {
	// Secure privileged read succeeds.
	p := asm.New()
	p.RdSys(R0, SysRNG).Hlt()
	m := newTestMachine(t, p)
	m.SetSCRNS(false) // secure world svc
	runToHalt(t, m)
	// Normal world read is undefined.
	m2 := newTestMachine(t, p)
	tr := m2.Run(10)
	if tr.Kind != TrapUndef {
		t.Fatalf("normal-world RNG read: %v", tr.Kind)
	}
}

func TestTTBR0BankedPerWorld(t *testing.T) {
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	m.SetTTBR0(mem.Secure, 0x1000)
	m.SetTTBR0(mem.Normal, 0x2000)
	if m.TTBR0(mem.Secure) != 0x1000 || m.TTBR0(mem.Normal) != 0x2000 {
		t.Fatal("TTBR0 banks not independent")
	}
}

func TestSetTTBR0MarksTLBInconsistent(t *testing.T) {
	phys, _ := mem.NewPhysical(mem.DefaultLayout())
	m := NewMachine(phys, rng.New(1))
	m.TLB.Flush()
	if !m.TLB.Consistent() {
		t.Fatal("setup")
	}
	m.SetTTBR0(mem.Secure, 0x4000_0000)
	if m.TLB.Consistent() {
		t.Fatal("TTBR0 load did not mark TLB inconsistent")
	}
}

func TestUserStoreToPageTableMarksInconsistent(t *testing.T) {
	p := asm.New()
	p.MovImm32(R0, 0x1000).
		Movw(R1, 7).
		Str(R1, R0, 0).
		Svc()
	m, data := buildEnclaveMachine(t, p)
	m.SetPageTablePages([]uint32{data}) // pretend data page is a PT
	m.TLB.Flush()
	tr := m.Run(100)
	if tr.Kind != TrapSVC {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if m.TLB.Consistent() {
		t.Fatal("store to page-table page did not mark TLB inconsistent")
	}
}

func TestCycleAccounting(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 1).Movw(R1, 2).Add(R2, R0, R1).Hlt()
	m := newTestMachine(t, p)
	runToHalt(t, m)
	if m.Cyc.Total() == 0 {
		t.Fatal("no cycles charged")
	}
	if m.Retired() != 3 {
		t.Fatalf("retired = %d, want 3", m.Retired())
	}
}

func TestScheduleIRQSemantics(t *testing.T) {
	// Pin the injection contract: ScheduleIRQ(n) asserts the IRQ before
	// the nth subsequent instruction executes, so exactly n-1 instructions
	// retire first (for unmasked user/privileged code).
	p := asm.New()
	p.Movw(R0, 0).
		Label("loop").
		AddI(R0, R0, 1).
		B("loop")
	m := newTestMachine(t, p)
	c := m.CPSR()
	c.I = false
	m.SetCPSR(c)
	m.ScheduleIRQ(10)
	tr := m.Run(1000)
	if tr.Kind != TrapIRQ {
		t.Fatalf("trap = %v", tr.Kind)
	}
	if got := m.Retired(); got != 9 {
		t.Fatalf("retired %d instructions before a ScheduleIRQ(10) interrupt, want 9", got)
	}
	// CancelIRQ clears a scheduled interrupt.
	m.ExceptionReturn()
	m.ScheduleIRQ(5)
	m.CancelIRQ()
	if tr := m.Run(100); tr.Kind != TrapBudget {
		t.Fatalf("cancelled IRQ still fired: %v", tr.Kind)
	}
}
