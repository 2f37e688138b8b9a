package monitor

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cycles"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagedb"
	"repro/internal/sha2"
)

// HandleSMC is the monitor's top-level SMC handler. It must be called with
// the machine in monitor mode immediately after an SMC exception from the
// OS (the state smchandler(s, d, s', d') relates, §5.2). It dispatches on
// R0, writes the results to R0/R1, zeroes the other volatile registers
// ("other non-return registers are zeroed (to prevent information leaks)",
// §5.2), preserves the OS's non-volatile registers, and returns to the
// caller via exception return.
func (k *Monitor) HandleSMC() error {
	m := k.m
	if m.CPSR().Mode != arm.ModeMon {
		return fmt.Errorf("monitor: HandleSMC outside monitor mode (%v)", m.CPSR().Mode)
	}
	entryStart := m.Cyc.Total()
	m.Cyc.Charge(cycles.SMCEntry + cycles.RegSaveMinimal)
	k.smcStartCyc = m.Cyc.Total()
	k.rngTrace = k.rngTrace[:0]
	k.trace = nil

	call := m.Reg(arm.R0)
	args := [4]uint32{m.Reg(arm.R1), m.Reg(arm.R2), m.Reg(arm.R3), m.Reg(arm.R4)}

	// Snapshot the OS's non-volatile registers (R5–R11; R0–R4 carry the
	// call and arguments, R12 is scratch); the prototype "conservatively
	// saves and restores every non-volatile register" (§8.1) — so do we,
	// including across enclave execution.
	var saved [7]uint32 // R5..R11
	for i := range saved {
		saved[i] = m.Reg(arm.Reg(5 + i))
	}

	bodyStart := m.Cyc.Total()
	errc, val, simErr := k.dispatchSMC(call, args)
	if simErr != nil {
		return simErr
	}
	bodyCyc := m.Cyc.Total() - bodyStart

	// Result registers and leak-prevention zeroing (§5.2: "non-volatile
	// registers are preserved, other non-return registers are zeroed").
	m.SetReg(arm.R0, uint32(errc))
	m.SetReg(arm.R1, val)
	m.SetReg(arm.R2, 0)
	m.SetReg(arm.R3, 0)
	m.SetReg(arm.R4, 0)
	m.SetReg(arm.R12, 0)
	for i := range saved {
		m.SetReg(arm.Reg(5+i), saved[i])
	}
	m.Cyc.Charge(cycles.SMCExit)
	m.ExceptionReturn()
	// Attribute the call's cycles to dispatch (world-switch mechanics:
	// entry, register save/restore, exit) versus body (the call's own
	// work), the split §8.1 analyses. Recording charges no cycles.
	totalCyc := m.Cyc.Total() - entryStart
	k.tel.ObserveSMC(call, args, uint32(errc), val, totalCyc, totalCyc-bodyCyc)
	return nil
}

func (k *Monitor) dispatchSMC(call uint32, a [4]uint32) (kapi.Err, uint32, error) {
	switch call {
	case kapi.SMCGetPhysPages:
		e, v := k.smcGetPhysPages()
		return e, v, nil
	case kapi.SMCInitAddrspace:
		e, v := k.smcInitAddrspace(a[0], a[1])
		return e, v, nil
	case kapi.SMCInitThread:
		e, v := k.smcInitThread(a[0], a[1], a[2])
		return e, v, nil
	case kapi.SMCInitL2PTable:
		e, v := k.smcInitL2PTable(a[0], a[1], a[2])
		return e, v, nil
	case kapi.SMCAllocSpare:
		e, v := k.smcAllocSpare(a[0], a[1])
		return e, v, nil
	case kapi.SMCMapSecure:
		e, v := k.smcMapSecure(a[0], a[1], kapi.Mapping(a[2]), a[3])
		return e, v, nil
	case kapi.SMCMapInsecure:
		e, v := k.smcMapInsecure(a[0], kapi.Mapping(a[1]), a[2])
		return e, v, nil
	case kapi.SMCFinalise:
		e, v := k.smcFinalise(a[0])
		return e, v, nil
	case kapi.SMCEnter:
		return k.smcEnter(a[0], a[1], a[2], a[3], false)
	case kapi.SMCResume:
		return k.smcEnter(a[0], 0, 0, 0, true)
	case kapi.SMCStop:
		e, v := k.smcStop(a[0])
		return e, v, nil
	case kapi.SMCRemove:
		e, v := k.smcRemove(a[0])
		return e, v, nil
	case kapi.SMCCheckpoint:
		return k.smcCheckpoint(a[0], a[1], a[2])
	case kapi.SMCRestore:
		return k.smcRestore(a[0], a[1], a[2], a[3])
	default:
		return kapi.ErrInvalidArg, 0, nil
	}
}

// --- individual SMC implementations over concrete state ---
// Validation order in each mirrors the specification exactly; that order
// is part of the spec (internal/spec/smc.go).

func (k *Monitor) smcGetPhysPages() (kapi.Err, uint32) {
	return kapi.ErrSuccess, k.rd(k.globalsAddr(gOffNPages))
}

// checkFree validates a page argument that must name a free page.
func (k *Monitor) checkFree(pg uint32) kapi.Err {
	if !k.validPage(pg) {
		return kapi.ErrInvalidPageNo
	}
	if k.pdType(pagedb.PageNr(pg)) != ctFree {
		return kapi.ErrPageInUse
	}
	return kapi.ErrSuccess
}

// checkAddrspace validates an addrspace page argument.
func (k *Monitor) checkAddrspace(pg uint32) kapi.Err {
	if !k.validPage(pg) {
		return kapi.ErrInvalidPageNo
	}
	if k.pdType(pagedb.PageNr(pg)) != ctAddrspace {
		return kapi.ErrInvalidAddrspace
	}
	return kapi.ErrSuccess
}

func (k *Monitor) smcInitAddrspace(asPg, l1Pg uint32) (kapi.Err, uint32) {
	if e := k.checkFree(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	if e := k.checkFree(l1Pg); e != kapi.ErrSuccess {
		return err1(e)
	}
	if asPg == l1Pg {
		// The aliased-arguments case the paper's unverified prototype
		// missed (§9.1).
		return err1(kapi.ErrInvalidArg)
	}
	as, l1 := pagedb.PageNr(asPg), pagedb.PageNr(l1Pg)
	// The L1 page becomes a live hardware page table: it must start empty.
	k.zeroPage(l1)
	k.zeroPage(as)
	base := k.physPage(as)
	k.wr(base+asOffState, csInit)
	k.wr(base+asOffL1PT, uint32(l1Pg))
	k.wr(base+asOffL1PTSet, 1)
	k.wr(base+asOffRefCount, 1)
	// Initialise the running measurement to a fresh SHA-256 state.
	k.storeMeasurement(as, sha2.New())
	k.pdSet(as, ctAddrspace, as)
	k.pdSet(l1, ctL1PT, as)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcInitThread(asPg, thrPg, entry uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) != csInit {
		return err1(kapi.ErrAlreadyFinal)
	}
	if e := k.checkFree(thrPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	th := pagedb.PageNr(thrPg)
	k.zeroPage(th)
	k.wr(k.physPage(th)+thOffEntry, entry)
	k.pdSet(th, ctThread, as)
	k.asAddRef(as, 1)
	var s sha2.Hash
	k.loadMeasurement(as, &s)
	s.WriteWords([]uint32{kapi.SMCInitThread, entry})
	k.storeMeasurement(as, &s)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcInitL2PTable(asPg, l2Pg, l1index uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) != csInit {
		return err1(kapi.ErrAlreadyFinal)
	}
	if l1index >= mmu.L1Entries {
		return err1(kapi.ErrInvalidMapping)
	}
	if e := k.checkFree(l2Pg); e != kapi.ErrSuccess {
		return err1(e)
	}
	l1, _ := k.asL1PT(as)
	l1Base := k.physPage(l1)
	slot := l1Base + l1index*4
	if k.rd(slot) != 0 {
		return err1(kapi.ErrAddrInUse)
	}
	l2 := pagedb.PageNr(l2Pg)
	k.zeroPage(l2)
	k.wr(slot, k.physPage(l2)|mmu.PteValid)
	k.m.NotePTStore()
	k.pdSet(l2, ctL2PT, as)
	k.asAddRef(as, 1)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcAllocSpare(asPg, sparePg uint32) (kapi.Err, uint32) {
	if k.staticProfile {
		return err1(kapi.ErrInvalidArg)
	}
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) == csStopped {
		return err1(kapi.ErrInvalidAddrspace)
	}
	if e := k.checkFree(sparePg); e != kapi.ErrSuccess {
		return err1(e)
	}
	k.pdSet(pagedb.PageNr(sparePg), ctSpare, as)
	k.asAddRef(as, 1)
	return kapi.ErrSuccess, 0
}

// insecureOK validates an insecure physical address argument, including
// the monitor-alias check the paper's prototype missed (§9.1). In our
// address map the monitor's pages are in secure RAM, so the region check
// subsumes the alias check, but both are written out to preserve the
// specification's structure.
func (k *Monitor) insecureOK(pa uint32) bool {
	if pa%mem.PageSize != 0 {
		return false
	}
	l := k.m.Phys.Layout()
	if pa < l.InsecureBase || uint64(pa)+mem.PageSize > uint64(l.InsecureBase)+uint64(l.InsecureSize) {
		return false
	}
	if k.m.Phys.InSecure(pa) { // monitor/enclave pages can never alias
		return false
	}
	return true
}

// mappingSlot resolves a mapping to the physical address of the L2 PTE it
// will occupy, mirroring spec.mappingTarget.
func (k *Monitor) mappingSlot(as pagedb.PageNr, m kapi.Mapping) (uint32, kapi.Err) {
	if !m.Valid() {
		return 0, kapi.ErrInvalidMapping
	}
	l1, set := k.asL1PT(as)
	if !set {
		return 0, kapi.ErrInvalidMapping
	}
	l1e := k.rd(k.physPage(l1) + uint32(mmu.L1Index(m.VA()))*4)
	if l1e&mmu.PteValid == 0 {
		return 0, kapi.ErrInvalidMapping
	}
	slot := (l1e &^ uint32(mem.PageSize-1)) + uint32(mmu.L2Index(m.VA()))*4
	if k.rd(slot) != 0 {
		return 0, kapi.ErrAddrInUse
	}
	return slot, kapi.ErrSuccess
}

func (k *Monitor) pteFor(target uint32, m kapi.Mapping, insecure bool) uint32 {
	p := mmu.Perms{Write: m.Write(), Exec: m.Exec(), NS: insecure}
	return mmu.PTE(target, p)
}

func (k *Monitor) smcMapSecure(asPg, dataPg uint32, m kapi.Mapping, contentAddr uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) != csInit {
		return err1(kapi.ErrAlreadyFinal)
	}
	if e := k.checkFree(dataPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	slot, e := k.mappingSlot(as, m)
	if e != kapi.ErrSuccess {
		return err1(e)
	}
	if !k.insecureOK(contentAddr) {
		return err1(kapi.ErrInsecureInvalid)
	}
	data := pagedb.PageNr(dataPg)
	// Copy the insecure page into the secure data page, hashing as we go
	// (the longest-running monitor call: "MapSecure initialises and
	// hashes a single page of memory", §7.2).
	dstBase := k.physPage(data)
	var s sha2.Hash
	k.loadMeasurement(as, &s)
	s.WriteWords([]uint32{kapi.SMCMapSecure, uint32(m)})
	var contents [mem.PageWords]uint32
	for i := 0; i < mem.PageWords; i++ {
		w, err := k.m.Phys.Read(contentAddr+uint32(i*4), mem.Secure)
		if err != nil {
			panic(fmt.Sprintf("monitor: MapSecure source read: %v", err))
		}
		contents[i] = w
	}
	if err := k.m.Phys.WritePage(dstBase, &contents, mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: MapSecure copy: %v", err))
	}
	k.m.Cyc.Charge(cycles.PageCopy)
	s.WriteWords(contents[:])
	k.storeMeasurement(as, &s)
	k.wr(slot, k.pteFor(dstBase, m, false))
	k.m.NotePTStore()
	k.pdSet(data, ctData, as)
	k.asAddRef(as, 1)
	k.tel.ObservePageMove(kapi.MoveToSecure, dataPg)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcMapInsecure(asPg uint32, m kapi.Mapping, target uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) != csInit {
		return err1(kapi.ErrAlreadyFinal)
	}
	slot, e := k.mappingSlot(as, m)
	if e != kapi.ErrSuccess {
		return err1(e)
	}
	if !k.insecureOK(target) {
		return err1(kapi.ErrInsecureInvalid)
	}
	k.wr(slot, k.pteFor(target, m, true))
	k.m.NotePTStore()
	k.tel.ObservePageMove(kapi.MoveInsecureShared, target/mem.PageSize)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcFinalise(asPg uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	as := pagedb.PageNr(asPg)
	if k.asState(as) != csInit {
		return err1(kapi.ErrAlreadyFinal)
	}
	var s sha2.Hash
	k.loadMeasurement(as, &s)
	sum := s.SumWords()
	base := k.physPage(as)
	for i, w := range sum {
		k.wr(base+asOffMeasured+uint32(i*4), w)
	}
	k.m.Cyc.Charge(cycles.SHABlock * s.Blocks()) // padding compression
	k.asSetState(as, csFinal)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcStop(asPg uint32) (kapi.Err, uint32) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return err1(e)
	}
	k.asSetState(pagedb.PageNr(asPg), csStopped)
	return kapi.ErrSuccess, 0
}

func (k *Monitor) smcRemove(pg uint32) (kapi.Err, uint32) {
	if !k.validPage(pg) {
		return err1(kapi.ErrInvalidPageNo)
	}
	n := pagedb.PageNr(pg)
	switch k.pdType(n) {
	case ctFree:
		return kapi.ErrSuccess, 0
	case ctAddrspace:
		if k.asState(n) != csStopped {
			return err1(kapi.ErrNotStopped)
		}
		if k.asRefCount(n) != 0 {
			return err1(kapi.ErrPageInUse)
		}
		k.scrubPage(n)
		k.pdSet(n, ctFree, 0)
		return kapi.ErrSuccess, 0
	case ctSpare:
		owner := k.pdOwner(n)
		k.asAddRef(owner, -1)
		k.scrubPage(n)
		k.pdSet(n, ctFree, 0)
		return kapi.ErrSuccess, 0
	default:
		owner := k.pdOwner(n)
		if k.asState(owner) != csStopped {
			return err1(kapi.ErrNotStopped)
		}
		k.asAddRef(owner, -1)
		k.scrubPage(n)
		k.pdSet(n, ctFree, 0)
		return kapi.ErrSuccess, 0
	}
}

// scrubPage zeroes a page being freed so its contents cannot leak into the
// next enclave that allocates it.
func (k *Monitor) scrubPage(n pagedb.PageNr) {
	k.zeroPageRaw(n)
	k.tel.ObservePageMove(kapi.MoveScrubbed, uint32(n))
}
