// Package nwos models the untrusted normal-world operating system: the
// entity that owns all resource-management decisions in Komodo's design
// ("The monitor does no allocations of its own — the OS must choose pages
// it knows to be free, or API calls fail", §4). It provides:
//
//   - bookkeeping allocators for secure page numbers and insecure RAM;
//   - an enclave builder that stages code/data in insecure memory and
//     drives the construction SMCs (the role of the paper's Linux kernel
//     driver, §8.1);
//   - enclave lifecycle helpers (enter/resume/stop/remove).
//
// The OS issues SMCs through a Driver, which is either the monitor itself
// or the refinement checker — so the same workloads run checked in tests
// and unchecked in benchmarks.
package nwos

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagedb"
	"repro/internal/telemetry"
)

// Driver issues SMCs to the monitor.
type Driver interface {
	SMC(call uint32, args ...uint32) (kapi.Err, uint32, error)
}

// Tap observes every non-deterministic input crossing the OS boundary: SMC
// results, insecure-memory traffic the Go-side harness performs, and
// interrupt scheduling. The record/replay layer (internal/replay) installs
// one to capture a request; nil means no observation. Taps run after the
// operation completes, on the same goroutine. The words and args slices
// a tap is handed are valid only for the duration of the call: the OS
// may reuse the buffers behind them (a checkpoint reads its blob into
// the caller's reused Checkpoint), so a tap that keeps them copies them.
type Tap interface {
	TapSMC(call uint32, args []uint32, errc kapi.Err, val uint32, err error)
	TapWriteInsecure(pa uint32, words []uint32, err error)
	TapReadInsecure(pa uint32, n int, words []uint32, err error)
	TapScheduleIRQ(n int64)
}

// OS is the normal-world OS model.
type OS struct {
	mach *arm.Machine
	drv  Driver

	freePage     []bool // OS's belief about secure page allocation
	nextInsecure uint32 // bump allocator over insecure RAM
	insecureEnd  uint32

	// scratchBase/scratchPages cache the insecure staging region used
	// for checkpoint blobs and page lists (checkpoint.go).
	scratchBase  uint32
	scratchPages int

	// tel records enclave lifecycle events (nil-receiver safe).
	tel *telemetry.Recorder

	// tap, when set, observes boundary operations for record/replay.
	tap Tap
}

// New builds an OS over a booted machine and SMC driver. npages is the
// monitor's GetPhysPages result (the OS would query it; callers pass it to
// keep construction infallible).
func New(mach *arm.Machine, drv Driver, npages int) *OS {
	l := mach.Phys.Layout()
	os := &OS{
		mach:     mach,
		drv:      drv,
		freePage: make([]bool, npages),
		// Reserve the first 1 MB of insecure RAM for the "OS image"
		// (programs the OS runs natively); staging starts above it.
		nextInsecure: l.InsecureBase + 1<<20,
		insecureEnd:  l.InsecureBase + l.InsecureSize,
	}
	for i := range os.freePage {
		os.freePage[i] = true
	}
	return os
}

// SetTelemetry attaches a telemetry recorder for lifecycle events. The
// same recorder is normally shared with the monitor, so SMC boundary
// events and lifecycle events interleave in one trace ring.
func (o *OS) SetTelemetry(t *telemetry.Recorder) { o.tel = t }

// SetTap installs (or, with nil, removes) the record/replay tap.
func (o *OS) SetTap(t Tap) { o.tap = t }

// Driver exposes the SMC driver.
func (o *OS) Driver() Driver { return o.drv }

// SMC issues a call through the driver with tap observation. Every SMC the
// OS model makes funnels through here, so a tap sees the complete ordered
// boundary trace of a request.
func (o *OS) SMC(call uint32, args ...uint32) (kapi.Err, uint32, error) {
	errc, val, err := o.drv.SMC(call, args...)
	if o.tap != nil {
		o.tap.TapSMC(call, args, errc, val, err)
	}
	return errc, val, err
}

// ScheduleInterrupt arranges an IRQ n instructions into the next enclave
// run (the OS's interrupt controller in the model), with tap observation.
func (o *OS) ScheduleInterrupt(n int64) {
	o.mach.ScheduleIRQ(n)
	if o.tap != nil {
		o.tap.TapScheduleIRQ(n)
	}
}

// AllocPage reserves a secure page number the OS believes is free.
func (o *OS) AllocPage() (pagedb.PageNr, error) {
	for i, free := range o.freePage {
		if free {
			o.freePage[i] = false
			return pagedb.PageNr(i), nil
		}
	}
	return 0, fmt.Errorf("nwos: out of secure pages")
}

// ReleasePage returns a page number to the OS's free list (after Remove).
func (o *OS) ReleasePage(n pagedb.PageNr) {
	if int(n) < len(o.freePage) {
		o.freePage[n] = true
	}
}

// AllocInsecurePage returns the physical base of a fresh insecure page.
func (o *OS) AllocInsecurePage() (uint32, error) {
	if o.nextInsecure+mem.PageSize > o.insecureEnd {
		return 0, fmt.Errorf("nwos: out of insecure RAM")
	}
	pa := o.nextInsecure
	o.nextInsecure += mem.PageSize
	return pa, nil
}

// WriteInsecure stores words into insecure RAM (normal-world access) as
// one bulk copy.
func (o *OS) WriteInsecure(pa uint32, words []uint32) error {
	err := o.mach.Phys.WriteWords(pa, words, mem.Normal)
	if o.tap != nil {
		o.tap.TapWriteInsecure(pa, words, err)
	}
	return err
}

// ReadInsecure loads n words from insecure RAM as one bulk copy.
func (o *OS) ReadInsecure(pa uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	if err := o.ReadInsecureInto(pa, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInsecureInto fills dst from insecure RAM at pa as one bulk copy.
func (o *OS) ReadInsecureInto(pa uint32, dst []uint32) error {
	err := o.mach.Phys.ReadWords(pa, dst, mem.Normal)
	if o.tap != nil {
		words := dst
		if err != nil {
			words = nil
		}
		o.tap.TapReadInsecure(pa, len(dst), words, err)
	}
	return err
}

// Segment is one virtual-memory region of an enclave image.
type Segment struct {
	VA    uint32 // page-aligned virtual base
	Write bool
	Exec  bool
	Words []uint32 // contents; padded to whole pages
}

// Shared requests an insecure region mapped into the enclave: Pages
// consecutive insecure pages mapped at consecutive VAs.
type Shared struct {
	VA    uint32
	Write bool
	// PA is the insecure physical base to map; zero means allocate.
	PA uint32
	// Pages is the region length in pages (0 and 1 both mean one page).
	Pages int
}

// Image describes an enclave to build.
type Image struct {
	Entry    uint32
	Segments []Segment
	Shared   []Shared
	Spares   int
	// ExtraThreads creates additional threads with the given entry points
	// ("An enclave consists of an address space with at least one
	// thread", §4 — Komodo supports any number; each thread has its own
	// context and suspend state, all sharing the address space).
	ExtraThreads []uint32
}

// Enclave tracks the pages of a built enclave.
type Enclave struct {
	AS     pagedb.PageNr
	L1PT   pagedb.PageNr
	Thread pagedb.PageNr // the primary thread
	// Threads lists every thread page (primary first).
	Threads []pagedb.PageNr
	L2PTs   map[int]pagedb.PageNr // by L1 index
	Data    []pagedb.PageNr
	Spares  []pagedb.PageNr
	// SharedPA records the insecure physical page backing each Shared
	// mapping, in request order.
	SharedPA []uint32
}

// smc issues a call and converts monitor errors into Go errors.
func (o *OS) smc(what string, call uint32, args ...uint32) (uint32, error) {
	e, v, err := o.SMC(call, args...)
	if err != nil {
		return v, fmt.Errorf("nwos: %s: %w", what, err)
	}
	if e != kapi.ErrSuccess {
		return v, fmt.Errorf("nwos: %s: %w", what, e)
	}
	return v, nil
}

// BuildEnclave drives the full construction sequence of §4: InitAddrspace,
// InitL2PTable for each needed slot, MapSecure for every image page,
// InitThread, MapInsecure for shared pages, AllocSpare, Finalise.
func (o *OS) BuildEnclave(img Image) (*Enclave, error) {
	asPg, err := o.AllocPage()
	if err != nil {
		return nil, err
	}
	l1Pg, err := o.AllocPage()
	if err != nil {
		return nil, err
	}
	if _, err := o.smc("InitAddrspace", kapi.SMCInitAddrspace, uint32(asPg), uint32(l1Pg)); err != nil {
		return nil, err
	}
	o.tel.ObserveLifecycle(telemetry.LifeInit, uint32(asPg))
	enc := &Enclave{AS: asPg, L1PT: l1Pg, L2PTs: make(map[int]pagedb.PageNr)}

	ensureL2 := func(va uint32) error {
		idx := mmu.L1Index(va)
		if _, ok := enc.L2PTs[idx]; ok {
			return nil
		}
		l2Pg, err := o.AllocPage()
		if err != nil {
			return err
		}
		if _, err := o.smc("InitL2PTable", kapi.SMCInitL2PTable, uint32(asPg), uint32(l2Pg), uint32(idx)); err != nil {
			return err
		}
		enc.L2PTs[idx] = l2Pg
		return nil
	}

	for _, seg := range img.Segments {
		if seg.VA%mem.PageSize != 0 {
			return nil, fmt.Errorf("nwos: segment VA %#x not page-aligned", seg.VA)
		}
		npages := (len(seg.Words) + mem.PageWords - 1) / mem.PageWords
		if npages == 0 {
			npages = 1
		}
		for pgi := 0; pgi < npages; pgi++ {
			va := seg.VA + uint32(pgi)*mem.PageSize
			if err := ensureL2(va); err != nil {
				return nil, err
			}
			stage, err := o.AllocInsecurePage()
			if err != nil {
				return nil, err
			}
			lo := pgi * mem.PageWords
			hi := lo + mem.PageWords
			var page [mem.PageWords]uint32
			for i := lo; i < hi && i < len(seg.Words); i++ {
				page[i-lo] = seg.Words[i]
			}
			if err := o.WriteInsecure(stage, page[:]); err != nil {
				return nil, err
			}
			dataPg, err := o.AllocPage()
			if err != nil {
				return nil, err
			}
			m := kapi.NewMapping(va, seg.Write, seg.Exec)
			if _, err := o.smc("MapSecure", kapi.SMCMapSecure, uint32(asPg), uint32(dataPg), uint32(m), stage); err != nil {
				return nil, err
			}
			enc.Data = append(enc.Data, dataPg)
		}
	}

	thrPg, err := o.AllocPage()
	if err != nil {
		return nil, err
	}
	if _, err := o.smc("InitThread", kapi.SMCInitThread, uint32(asPg), uint32(thrPg), img.Entry); err != nil {
		return nil, err
	}
	enc.Thread = thrPg
	enc.Threads = []pagedb.PageNr{thrPg}
	for _, entry := range img.ExtraThreads {
		extra, err := o.AllocPage()
		if err != nil {
			return nil, err
		}
		if _, err := o.smc("InitThread", kapi.SMCInitThread, uint32(asPg), uint32(extra), entry); err != nil {
			return nil, err
		}
		enc.Threads = append(enc.Threads, extra)
	}

	for _, sh := range img.Shared {
		pages := sh.Pages
		if pages == 0 {
			pages = 1
		}
		base := sh.PA
		if base == 0 {
			// The bump allocator hands out consecutive pages, so a
			// multi-page allocation is contiguous by construction.
			for i := 0; i < pages; i++ {
				pa, err := o.AllocInsecurePage()
				if err != nil {
					return nil, err
				}
				if i == 0 {
					base = pa
				} else if pa != base+uint32(i)*mem.PageSize {
					return nil, fmt.Errorf("nwos: insecure allocation not contiguous")
				}
			}
		}
		for i := 0; i < pages; i++ {
			va := sh.VA + uint32(i)*mem.PageSize
			if err := ensureL2(va); err != nil {
				return nil, err
			}
			m := kapi.NewMapping(va, sh.Write, false)
			if _, err := o.smc("MapInsecure", kapi.SMCMapInsecure, uint32(asPg), uint32(m), base+uint32(i)*mem.PageSize); err != nil {
				return nil, err
			}
		}
		enc.SharedPA = append(enc.SharedPA, base)
	}

	for i := 0; i < img.Spares; i++ {
		spPg, err := o.AllocPage()
		if err != nil {
			return nil, err
		}
		if _, err := o.smc("AllocSpare", kapi.SMCAllocSpare, uint32(asPg), uint32(spPg)); err != nil {
			return nil, err
		}
		enc.Spares = append(enc.Spares, spPg)
	}

	if _, err := o.smc("Finalise", kapi.SMCFinalise, uint32(asPg)); err != nil {
		return nil, err
	}
	o.tel.ObserveLifecycle(telemetry.LifeFinalise, uint32(asPg))
	return enc, nil
}

// observeRun records the lifecycle events of one Enter/Resume SMC: the
// attempt (LifeEnter or LifeResume) and, on success, how the enclave left
// the processor (suspended by an interrupt, exited, or faulted).
func (o *OS) observeRun(resume bool, th pagedb.PageNr, errc kapi.Err, err error) {
	if o.tel == nil || err != nil {
		return
	}
	if resume {
		o.tel.ObserveLifecycle(telemetry.LifeResume, uint32(th))
	} else {
		o.tel.ObserveLifecycle(telemetry.LifeEnter, uint32(th))
	}
	switch errc {
	case kapi.ErrInterrupted:
		o.tel.ObserveLifecycle(telemetry.LifeSuspend, uint32(th))
	case kapi.ErrSuccess:
		o.tel.ObserveLifecycle(telemetry.LifeExit, uint32(th))
	case kapi.ErrFault:
		o.tel.ObserveLifecycle(telemetry.LifeFault, uint32(th))
	}
}

// Enter runs the enclave's thread with up to three arguments, returning
// the monitor's (error, value) pair.
func (o *OS) Enter(e *Enclave, args ...uint32) (kapi.Err, uint32, error) {
	a := make([]uint32, 4)
	a[0] = uint32(e.Thread)
	for i := 0; i < len(args) && i < 3; i++ {
		a[1+i] = args[i]
	}
	errc, val, err := o.SMC(kapi.SMCEnter, a...)
	o.observeRun(false, e.Thread, errc, err)
	return errc, val, err
}

// Resume resumes a suspended thread.
func (o *OS) Resume(e *Enclave) (kapi.Err, uint32, error) {
	errc, val, err := o.SMC(kapi.SMCResume, uint32(e.Thread))
	o.observeRun(true, e.Thread, errc, err)
	return errc, val, err
}

// EnterThread enters a specific thread (index into Threads).
func (o *OS) EnterThread(e *Enclave, idx int, args ...uint32) (kapi.Err, uint32, error) {
	a := make([]uint32, 4)
	a[0] = uint32(e.Threads[idx])
	for i := 0; i < len(args) && i < 3; i++ {
		a[1+i] = args[i]
	}
	errc, val, err := o.SMC(kapi.SMCEnter, a...)
	o.observeRun(false, e.Threads[idx], errc, err)
	return errc, val, err
}

// ResumeThread resumes a specific suspended thread.
func (o *OS) ResumeThread(e *Enclave, idx int) (kapi.Err, uint32, error) {
	errc, val, err := o.SMC(kapi.SMCResume, uint32(e.Threads[idx]))
	o.observeRun(true, e.Threads[idx], errc, err)
	return errc, val, err
}

// RunToCompletion enters the enclave and keeps resuming across interrupts
// until it exits or faults.
func (o *OS) RunToCompletion(e *Enclave, args ...uint32) (kapi.Err, uint32, error) {
	errc, val, err := o.Enter(e, args...)
	for err == nil && errc == kapi.ErrInterrupted {
		errc, val, err = o.Resume(e)
	}
	return errc, val, err
}

// Destroy stops the enclave and removes every page, returning them to the
// OS allocator.
func (o *OS) Destroy(e *Enclave) error {
	if _, err := o.smc("Stop", kapi.SMCStop, uint32(e.AS)); err != nil {
		return err
	}
	o.tel.ObserveLifecycle(telemetry.LifeStop, uint32(e.AS))
	var pages []pagedb.PageNr
	pages = append(pages, e.Data...)
	pages = append(pages, e.Spares...)
	if len(e.Threads) > 0 {
		pages = append(pages, e.Threads...)
	} else {
		pages = append(pages, e.Thread)
	}
	for _, l2 := range e.L2PTs {
		pages = append(pages, l2)
	}
	pages = append(pages, e.L1PT)
	for _, pg := range pages {
		if _, err := o.smc("Remove", kapi.SMCRemove, uint32(pg)); err != nil {
			return err
		}
		o.ReleasePage(pg)
	}
	if _, err := o.smc("Remove addrspace", kapi.SMCRemove, uint32(e.AS)); err != nil {
		return err
	}
	o.ReleasePage(e.AS)
	o.tel.ObserveLifecycle(telemetry.LifeRemove, uint32(e.AS))
	return nil
}
