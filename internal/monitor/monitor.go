package monitor

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cycles"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/pagedb"
	"repro/internal/seal"
	"repro/internal/sha2"
)

// Monitor is the concrete Komodo monitor instance bound to a machine.
type Monitor struct {
	m      *arm.Machine
	npages int

	// attestKey caches the boot-derived attestation secret (also stored
	// in the globals page; the cache avoids 8 memory reads per MAC).
	attestKey [32]byte

	// sealRoot is the sealing-key root, derived from the boot secret at
	// install (docs/SEALING.md). Like attestKey it is cached from the
	// globals page.
	sealRoot [32]byte

	// ExecBudget bounds simulated enclave instructions per Enter/Resume;
	// exceeding it is a simulation error (real hardware would simply keep
	// running until an interrupt).
	ExecBudget int64

	// recording state for the refinement harness.
	recording bool
	trace     []kapi.ExecEvent
	rngTrace  []uint32

	staticProfile bool
	optimised     bool

	// Cycle probes for the Table 3 microbenchmarks: cycles from SMC entry
	// until the first enclave instruction would execute ("Enter only" /
	// "Resume only (no return)" rows).
	smcStartCyc    uint64
	LastEnterSetup uint64

	// tel receives counters and trace events (noObserver when nothing is
	// attached); observations never charge simulated cycles (they must
	// not perturb the cycle model).
	tel kapi.Observer

	// ckpt is storage the checkpoint SMC reuses from call to call.
	ckpt ckptScratch

	// ptPages is pageTablePages' reused buffer: the page-table pages
	// collected on every Enter.
	ptPages []uint32
}

// Config parameterises Install.
type Config struct {
	// StaticProfile disables dynamic memory management, modelling the
	// paper's first (SGXv1-style) Komodo version (§7.3).
	StaticProfile bool
	// ExecBudget bounds enclave instructions per entry (default 50M).
	ExecBudget int64
	// Optimised enables the crossing optimisations the paper's prototype
	// deliberately omits pending proof (§8.1): skip the TLB flush "for
	// repeated invocation of the same enclave" when the live page tables
	// are untouched, and skip the conservative banked-register
	// save/restore cost for registers "known to be preserved". Used by
	// the ablation benchmark; the default is the paper-faithful
	// unoptimised monitor.
	Optimised bool
}

// Install initialises the monitor on a freshly booted machine: it derives
// the attestation key from the hardware RNG, zeroes the PageDB, and
// records the secure-page count. This is the role of the paper's trusted
// bootloader (§7.2): "loads the monitor in secure world, setting up its
// memory map and exception vectors... reserves a configurable amount of
// RAM as secure memory".
func Install(m *arm.Machine, cfg Config) (*Monitor, error) {
	total := m.Phys.SecurePageCount()
	if total <= ReservedPages {
		return nil, fmt.Errorf("monitor: secure region too small: %d pages", total)
	}
	npages := total - ReservedPages
	if npages > 256 {
		// The PageDB table page holds at most 256 two-word entries; a
		// larger secure region would need a multi-page table.
		npages = 256
	}
	k := &Monitor{m: m, npages: npages, ExecBudget: 50_000_000,
		staticProfile: cfg.StaticProfile, optimised: cfg.Optimised, tel: noObserver{}}
	if cfg.ExecBudget > 0 {
		k.ExecBudget = cfg.ExecBudget
	}

	// Derive the attestation key from the hardware entropy source (§4:
	// "a secret key generated at boot from a cryptographically secure
	// source of randomness").
	keyWords := m.RNG.Words(8)
	key := sha2.WordsToBytes(keyWords)
	copy(k.attestKey[:], key)
	m.Cyc.Charge(cycles.RNGWord * 8)

	// Derive the sealing root from the boot secret (one HMAC) and persist
	// it alongside the attestation key. Sealing never uses the boot
	// secret directly, so a future sealed-storage compromise cannot walk
	// back to the attestation identity.
	k.sealRoot = seal.DeriveRoot(k.attestKey)
	m.Cyc.Charge(cycles.HMACFixed + cycles.SHABlock*sha2.HMACBlocks(len("komodo-seal-root-v1")))

	// Persist globals and zero the PageDB table.
	k.wr(k.globalsAddr(gOffNPages), uint32(npages))
	for i, w := range keyWords {
		k.wr(k.globalsAddr(gOffAttestKey)+uint32(i*4), w)
	}
	for i, w := range sha2.BytesToWords(k.sealRoot[:]) {
		k.wr(k.globalsAddr(gOffSealRoot)+uint32(i*4), w)
	}
	pdb := m.Phys.SecurePageBase(pdbPage)
	if err := m.Phys.ZeroPage(pdb, mem.Secure); err != nil {
		return nil, err
	}
	// Exception vector bases (kept for architectural fidelity; the Go
	// handlers below play the vector code's role).
	m.SetMVBAR(0xffff_0000)
	m.SetVBAR(0xffff_1000)
	return k, nil
}

// SetObserver attaches a non-nil observer (a telemetry recorder); until
// then observations are discarded.
func (k *Monitor) SetObserver(o kapi.Observer) { k.tel = o }

// noObserver discards every observation.
type noObserver struct{}

func (noObserver) ObserveSMC(uint32, [4]uint32, uint32, uint32, uint64, uint64) {}
func (noObserver) ObserveSVC(uint32, uint32, uint64)                            {}
func (noObserver) ObserveEnterSetup(bool, uint64)                               {}
func (noObserver) ObservePageMove(uint32, uint32)                               {}

// NPages returns the number of allocatable secure pages.
func (k *Monitor) NPages() int { return k.npages }

// Machine returns the underlying machine (tests and the OS model use it).
func (k *Monitor) Machine() *arm.Machine { return k.m }

// AttestKey exposes the boot secret to the verification harness only (the
// spec needs it to recompute MACs). Nothing in the OS model uses this.
func (k *Monitor) AttestKey() [32]byte { return k.attestKey }

// StaticProfile reports whether the SGXv1-style profile is active.
func (k *Monitor) StaticProfile() bool { return k.staticProfile }

// SetRecording enables execution-trace recording for refinement checks.
func (k *Monitor) SetRecording(on bool) { k.recording = on }

// Trace returns the execution trace of the last Enter/Resume SMC.
func (k *Monitor) Trace() []kapi.ExecEvent { return append([]kapi.ExecEvent(nil), k.trace...) }

// RNGTrace returns the random words drawn during the last SMC.
func (k *Monitor) RNGTrace() []uint32 { return append([]uint32(nil), k.rngTrace...) }

// --- concrete memory accessors (secure world, word granularity) ---

// rd and wr panic on access errors: the monitor accesses only monitor and
// enclave pages in secure RAM, and a failure there is a simulator bug, not
// an architectural event (the paper's monitor proves its accesses valid;
// our invariant is the same).
func (k *Monitor) rd(addr uint32) uint32 {
	v, err := k.m.Phys.Read(addr, mem.Secure)
	if err != nil {
		panic(fmt.Sprintf("monitor: secure read %#x: %v", addr, err))
	}
	k.m.Cyc.Charge(cycles.WordRead)
	return v
}

func (k *Monitor) wr(addr, val uint32) {
	if err := k.m.Phys.Write(addr, val, mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: secure write %#x: %v", addr, err))
	}
	k.m.Cyc.Charge(cycles.WordWrite)
}

// --- PageDB table accessors ---

func (k *Monitor) pdType(n pagedb.PageNr) uint32 {
	k.m.Cyc.Charge(cycles.PageDBLookup)
	return k.rd(k.pdbAddr(n) + pdbOffType)
}

func (k *Monitor) pdOwner(n pagedb.PageNr) pagedb.PageNr {
	return pagedb.PageNr(k.rd(k.pdbAddr(n) + pdbOffOwner))
}

func (k *Monitor) pdSet(n pagedb.PageNr, ct uint32, owner pagedb.PageNr) {
	k.m.Cyc.Charge(cycles.PageDBLookup)
	k.wr(k.pdbAddr(n)+pdbOffType, ct)
	k.wr(k.pdbAddr(n)+pdbOffOwner, uint32(owner))
	// Any allocation-state change conservatively invalidates TLB
	// consistency: a freed-and-reused page may still be reachable through
	// cached translations. This is what makes the optimised crossing's
	// skip-flush fast path sound (it requires Consistent()).
	k.m.NotePTStore()
}

func (k *Monitor) validPage(n uint32) bool { return n < uint32(k.npages) }

// --- addrspace page field accessors ---

func (k *Monitor) asState(as pagedb.PageNr) uint32 {
	return k.rd(k.physPage(as) + asOffState)
}

func (k *Monitor) asSetState(as pagedb.PageNr, s uint32) {
	k.wr(k.physPage(as)+asOffState, s)
}

func (k *Monitor) asL1PT(as pagedb.PageNr) (pagedb.PageNr, bool) {
	base := k.physPage(as)
	return pagedb.PageNr(k.rd(base + asOffL1PT)), k.rd(base+asOffL1PTSet) != 0
}

func (k *Monitor) asRefCount(as pagedb.PageNr) uint32 {
	return k.rd(k.physPage(as) + asOffRefCount)
}

func (k *Monitor) asAddRef(as pagedb.PageNr, delta int32) {
	a := k.physPage(as) + asOffRefCount
	k.wr(a, uint32(int32(k.rd(a))+delta))
}

// loadMeasurement reconstructs the running measurement hash from the
// addrspace page into s.
func (k *Monitor) loadMeasurement(as pagedb.PageNr, s *sha2.Hash) {
	base := k.physPage(as)
	var h [8]uint32
	for i := range h {
		h[i] = k.rd(base + asOffHashH + uint32(i*4))
	}
	nbuf := int(k.rd(base + asOffHashNbuf))
	length := uint64(k.rd(base+asOffHashLenL)) | uint64(k.rd(base+asOffHashLenH))<<32
	var buf [sha2.BlockSize]byte
	for i := 0; i < sha2.BlockSize/4; i++ {
		w := k.rd(base + asOffHashBuf + uint32(i*4))
		buf[i*4] = byte(w >> 24)
		buf[i*4+1] = byte(w >> 16)
		buf[i*4+2] = byte(w >> 8)
		buf[i*4+3] = byte(w)
	}
	s.Unmarshal(h, buf, nbuf, length)
}

// storeMeasurement persists the hash state back and charges compression
// cycles for the blocks processed since load.
func (k *Monitor) storeMeasurement(as pagedb.PageNr, s *sha2.Hash) {
	base := k.physPage(as)
	h, buf, nbuf, length := s.Marshal()
	for i := range h {
		k.wr(base+asOffHashH+uint32(i*4), h[i])
	}
	k.wr(base+asOffHashNbuf, uint32(nbuf))
	k.wr(base+asOffHashLenL, uint32(length))
	k.wr(base+asOffHashLenH, uint32(length>>32))
	for i := 0; i < sha2.BlockSize/4; i++ {
		w := uint32(buf[i*4])<<24 | uint32(buf[i*4+1])<<16 | uint32(buf[i*4+2])<<8 | uint32(buf[i*4+3])
		k.wr(base+asOffHashBuf+uint32(i*4), w)
	}
	k.m.Cyc.Charge(cycles.SHABlock * s.Blocks())
}

func (k *Monitor) asMeasured(as pagedb.PageNr) [8]uint32 {
	base := k.physPage(as)
	var out [8]uint32
	for i := range out {
		out[i] = k.rd(base + asOffMeasured + uint32(i*4))
	}
	return out
}

// --- thread page field accessors ---

func (k *Monitor) thEntered(th pagedb.PageNr) bool {
	return k.rd(k.physPage(th)+thOffEntered) != 0
}

func (k *Monitor) thSetEntered(th pagedb.PageNr, v bool) {
	var w uint32
	if v {
		w = 1
	}
	k.wr(k.physPage(th)+thOffEntered, w)
}

func (k *Monitor) thEntry(th pagedb.PageNr) uint32 {
	return k.rd(k.physPage(th) + thOffEntry)
}

func (k *Monitor) thHandler(th pagedb.PageNr) uint32 {
	return k.rd(k.physPage(th) + thOffHandler)
}

func (k *Monitor) thSetHandler(th pagedb.PageNr, addr uint32) {
	k.wr(k.physPage(th)+thOffHandler, addr)
}

func (k *Monitor) thInHandler(th pagedb.PageNr) bool {
	return k.rd(k.physPage(th)+thOffInHandler) != 0
}

func (k *Monitor) thSetInHandler(th pagedb.PageNr, v bool) {
	var w uint32
	if v {
		w = 1
	}
	k.wr(k.physPage(th)+thOffInHandler, w)
}

// readSVCArgs snapshots the SVC argument registers R1–R8.
func (k *Monitor) readSVCArgs() [8]uint32 {
	var args [8]uint32
	for i := 0; i < 8; i++ {
		args[i] = k.m.Reg(arm.Reg(1 + i))
	}
	return args
}

// zeroPage zero-fills an enclave page, charging the Table 3 cost.
func (k *Monitor) zeroPage(n pagedb.PageNr) {
	k.zeroPageRaw(n)
	k.tel.ObservePageMove(kapi.MoveZeroFilled, uint32(n))
}

// zeroPageRaw is zeroPage without the telemetry classification, for
// callers that account the page movement themselves (scrubPage).
func (k *Monitor) zeroPageRaw(n pagedb.PageNr) {
	if err := k.m.Phys.ZeroPage(k.physPage(n), mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: zero page %d: %v", n, err))
	}
	k.m.Cyc.Charge(cycles.PageZero)
}

// err1 packs an error with a zero value.
func err1(e kapi.Err) (kapi.Err, uint32) { return e, 0 }
