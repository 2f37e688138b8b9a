// Package komodo is the public API of the Komodo reproduction: a simulated
// ARM TrustZone platform running the verified-monitor design of "Komodo:
// Using verification to disentangle secure-enclave hardware from software"
// (SOSP 2017), exposed the way a downstream user would consume it.
//
// A System is a booted platform (CPU model, secure/insecure RAM, monitor).
// Enclaves are built from Images (code/data segments plus shared insecure
// regions), executed with Run/Enter/Resume, and attested via their
// measurements. All twelve SMCs and nine SVCs of the paper's Table 1 are
// reachable through this surface; the lower-level packages (machine model,
// functional spec, refinement and noninterference harnesses) live under
// internal/.
//
// Quick start:
//
//	sys, _ := komodo.New()
//	enc, _ := sys.LoadEnclave(img)
//	res, _ := enc.Run(42)
//	fmt.Println(res.Value)
package komodo

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arm"
	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/nwos"
	"repro/internal/obs"
	"repro/internal/pagedb"
	"repro/internal/refine"
	"repro/internal/telemetry"
)

// Protection selects the isolated-memory hardware variant (§3.2 of the
// paper): an IOMMU-like filter (physical attacks out of scope), on-chip
// scratchpad RAM, or an encryption engine with integrity protection.
type Protection = mem.Protection

const (
	ProtFilter     = mem.ProtFilter
	ProtScratchpad = mem.ProtScratchpad
	ProtEncrypt    = mem.ProtEncrypt
)

// Option configures New.
type Option func(*config)

type config struct {
	seed         uint64
	protection   Protection
	static       bool
	checked      bool
	budget       int64
	secureSize   uint32
	optimised    bool
	telemetry    bool
	sink         telemetry.Sink
	noBlockCache bool
}

// WithSeed sets the hardware RNG seed (default 1). Equal seeds give
// bit-identical simulations.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithProtection selects the secure-memory protection variant.
func WithProtection(p Protection) Option { return func(c *config) { c.protection = p } }

// WithStaticProfile boots the SGXv1-style monitor without dynamic memory
// management (the paper's first Komodo version, §7.3).
func WithStaticProfile() Option { return func(c *config) { c.static = true } }

// WithRefinementChecking routes every monitor call through the runtime
// refinement checker: after each SMC the concrete secure memory is decoded
// and compared against the functional specification. Slower; invaluable in
// tests.
func WithRefinementChecking() Option { return func(c *config) { c.checked = true } }

// WithExecBudget bounds simulated instructions per enclave entry.
func WithExecBudget(n int64) Option { return func(c *config) { c.budget = n } }

// WithSecureMemory sets the size of the secure region in bytes (the
// paper's bootloader "reserves a configurable amount of RAM as secure
// memory", §8.1). Must be a multiple of 4 kB; the monitor reserves two
// pages for itself and manages at most 256 in total.
func WithSecureMemory(bytes uint32) Option { return func(c *config) { c.secureSize = bytes } }

// WithOptimisedCrossings enables the §8.1 crossing optimisations (skip
// the TLB flush on repeated same-enclave entry; lazy banked-register
// accounting). The default is the paper-faithful unoptimised monitor.
func WithOptimisedCrossings() Option { return func(c *config) { c.optimised = true } }

// WithTelemetry attaches a telemetry recorder to the platform: per-SMC
// counters and cycle histograms, lifecycle events, page-movement
// accounting, and a bounded in-memory trace ring. Read the results with
// Telemetry (the live recorder) or TelemetrySnapshot (a JSON-friendly
// summary). Without this option the system is uninstrumented and the
// observation paths cost nothing.
func WithTelemetry() Option { return func(c *config) { c.telemetry = true } }

// WithoutBlockCache boots the machine with the superblock translation
// cache disabled, leaving the per-instruction fetch+decode interpreter
// path. The block cache is semantically invisible (bit-identical
// execution, pinned by the internal/arm block differential and fuzz
// harnesses), so the only reason to turn it off is A/B measurement of
// the simulator itself — see docs/PERFORMANCE.md.
func WithoutBlockCache() Option { return func(c *config) { c.noBlockCache = true } }

// WithTelemetrySink attaches a telemetry recorder that forwards every
// trace event to s as it happens (e.g. a telemetry.MemorySink for tests,
// or a telemetry.JSONLSink streaming to a file). Implies WithTelemetry.
func WithTelemetrySink(s telemetry.Sink) Option {
	return func(c *config) { c.telemetry = true; c.sink = s }
}

// System is a booted Komodo platform.
type System struct {
	plat *board.Platform
	os   *nwos.OS
	cfg  config
}

// BootConfig is the reproducible subset of a System's boot configuration:
// everything a fresh process needs to boot a behaviourally identical
// platform. The record/replay layer (internal/replay) embeds one in every
// trace header. Telemetry attachment is deliberately absent — recorders
// are observation, not machine state.
type BootConfig struct {
	Seed         uint64
	Protection   Protection
	Static       bool
	Checked      bool
	Optimised    bool
	Budget       int64
	SecureSize   uint32
	NoBlockCache bool
}

// BootConfig reports the configuration this system was booted with.
func (s *System) BootConfig() BootConfig {
	return BootConfig{
		Seed:         s.cfg.seed,
		Protection:   s.cfg.protection,
		Static:       s.cfg.static,
		Checked:      s.cfg.checked,
		Optimised:    s.cfg.optimised,
		Budget:       s.cfg.budget,
		SecureSize:   s.cfg.secureSize,
		NoBlockCache: s.cfg.noBlockCache,
	}
}

// Options reconstructs the option list that reproduces this configuration
// on a fresh New call (telemetry options excluded).
func (bc BootConfig) Options() []Option {
	opts := []Option{WithSeed(bc.Seed), WithProtection(bc.Protection)}
	if bc.Static {
		opts = append(opts, WithStaticProfile())
	}
	if bc.Checked {
		opts = append(opts, WithRefinementChecking())
	}
	if bc.Optimised {
		opts = append(opts, WithOptimisedCrossings())
	}
	if bc.Budget != 0 {
		opts = append(opts, WithExecBudget(bc.Budget))
	}
	if bc.SecureSize != 0 {
		opts = append(opts, WithSecureMemory(bc.SecureSize))
	}
	if bc.NoBlockCache {
		opts = append(opts, WithoutBlockCache())
	}
	return opts
}

// New boots a platform.
func New(opts ...Option) (*System, error) {
	c := config{seed: 1}
	for _, o := range opts {
		o(&c)
	}
	bc := board.Config{
		Seed:              c.seed,
		Protection:        c.protection,
		Monitor:           monitor.Config{StaticProfile: c.static, ExecBudget: c.budget, Optimised: c.optimised},
		DisableBlockCache: c.noBlockCache,
	}
	if c.telemetry {
		rec := telemetry.New()
		if c.sink != nil {
			rec.SetSink(c.sink)
		}
		bc.Telemetry = rec
	}
	if c.secureSize != 0 {
		l := mem.DefaultLayout()
		l.Protection = c.protection
		l.SecureSize = c.secureSize
		bc.Layout = &l
	}
	plat, err := board.Boot(bc)
	if err != nil {
		return nil, err
	}
	var drv nwos.Driver = plat.Monitor
	if c.checked {
		drv = refine.New(plat.Monitor)
	}
	osm := nwos.New(plat.Machine, drv, plat.Monitor.NPages())
	osm.SetTelemetry(plat.Telemetry)
	return &System{plat: plat, os: osm, cfg: c}, nil
}

// Telemetry returns the recorder attached by WithTelemetry, or nil. The
// nil recorder is safe to pass around: every observation and accessor on
// it is a no-op.
func (s *System) Telemetry() *telemetry.Recorder { return s.plat.Telemetry }

// TelemetrySnapshot summarises the platform's counters — per-call series,
// lifecycle and page-movement tallies, instruction classes, TLB and
// PageDB census — as one JSON-serialisable value.
func (s *System) TelemetrySnapshot() telemetry.Snapshot { return s.plat.StatsSnapshot() }

// PhysPages returns the number of allocatable secure pages, as reported by
// the GetPhysPages monitor call.
func (s *System) PhysPages() (int, error) {
	e, v, err := s.os.SMC(kapi.SMCGetPhysPages)
	if err != nil {
		return 0, err
	}
	if e != kapi.ErrSuccess {
		return 0, e
	}
	return int(v), nil
}

// Machine exposes the underlying simulated machine for advanced use
// (interrupt injection, cycle accounting, physical-attack simulation).
func (s *System) Machine() *arm.Machine { return s.plat.Machine }

// Monitor exposes the monitor (verification harnesses).
func (s *System) Monitor() *monitor.Monitor { return s.plat.Monitor }

// OS exposes the normal-world OS model.
func (s *System) OS() *nwos.OS { return s.os }

// Cycles returns the simulated cycle counter's current total.
func (s *System) Cycles() uint64 { return s.plat.Machine.Cyc.Total() }

// Segment is one virtual-memory region of an enclave image. Word contents
// are padded to whole 4 kB pages.
type Segment struct {
	VA    uint32
	Write bool
	Exec  bool
	Words []uint32
}

// SharedRegion asks for insecure pages shared with the OS mapped into the
// enclave at VA.
type SharedRegion struct {
	VA    uint32
	Write bool
	Pages int
}

// Image describes an enclave to load.
type Image struct {
	Entry    uint32
	Segments []Segment
	Shared   []SharedRegion
	// Spares allocates spare pages for SGXv2-style dynamic memory.
	Spares int
	// ExtraThreads creates additional threads at the given entry points;
	// all threads share the address space but suspend independently.
	ExtraThreads []uint32
}

// FromNWOSImage converts an OS-model image (e.g. one produced by the
// internal/kasm guest library) into a facade Image.
func FromNWOSImage(n nwos.Image) Image {
	img := Image{Entry: n.Entry, Spares: n.Spares}
	for _, s := range n.Segments {
		img.Segments = append(img.Segments, Segment{VA: s.VA, Write: s.Write, Exec: s.Exec, Words: s.Words})
	}
	for _, sh := range n.Shared {
		img.Shared = append(img.Shared, SharedRegion{VA: sh.VA, Write: sh.Write, Pages: sh.Pages})
	}
	return img
}

// Enclave is a loaded, finalised enclave.
type Enclave struct {
	sys *System
	enc *nwos.Enclave
}

// LoadEnclave builds and finalises an enclave from the image, driving the
// construction SMC sequence of the paper's §4.
func (s *System) LoadEnclave(img Image) (*Enclave, error) {
	var nimg nwos.Image
	nimg.Entry = img.Entry
	for _, seg := range img.Segments {
		nimg.Segments = append(nimg.Segments, nwos.Segment{
			VA: seg.VA, Write: seg.Write, Exec: seg.Exec, Words: seg.Words,
		})
	}
	for _, sh := range img.Shared {
		nimg.Shared = append(nimg.Shared, nwos.Shared{VA: sh.VA, Write: sh.Write, Pages: sh.Pages})
	}
	nimg.Spares = img.Spares
	nimg.ExtraThreads = img.ExtraThreads
	enc, err := s.os.BuildEnclave(nimg)
	if err != nil {
		return nil, err
	}
	return &Enclave{sys: s, enc: enc}, nil
}

// Result is the outcome of an enclave execution.
type Result struct {
	// Value is the Exit value (normal completion), or the exception type
	// code for Interrupted/Faulted results — the only information the
	// monitor releases about enclave execution.
	Value uint32
	// Interrupted reports suspension by an interrupt; Resume continues.
	Interrupted bool
	// Faulted reports that the enclave raised an exception and exited.
	Faulted bool
}

// ErrEnclave wraps monitor error codes surfaced as Go errors.
var ErrEnclave = errors.New("komodo: monitor rejected call")

func (e *Enclave) result(errc kapi.Err, val uint32) (Result, error) {
	switch errc {
	case kapi.ErrSuccess:
		return Result{Value: val}, nil
	case kapi.ErrInterrupted:
		return Result{Value: val, Interrupted: true}, nil
	case kapi.ErrFault:
		return Result{Value: val, Faulted: true}, nil
	default:
		return Result{}, fmt.Errorf("%w: %v", ErrEnclave, errc)
	}
}

// Enter starts the enclave thread with up to three arguments.
func (e *Enclave) Enter(args ...uint32) (Result, error) {
	errc, val, err := e.sys.os.Enter(e.enc, args...)
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// Resume continues a thread suspended by an interrupt.
func (e *Enclave) Resume() (Result, error) {
	errc, val, err := e.sys.os.Resume(e.enc)
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// Threads reports how many threads the enclave has.
func (e *Enclave) Threads() int { return len(e.enc.Threads) }

// EnterThread starts a specific thread (0 = the primary).
func (e *Enclave) EnterThread(idx int, args ...uint32) (Result, error) {
	if idx < 0 || idx >= len(e.enc.Threads) {
		return Result{}, fmt.Errorf("komodo: no thread %d", idx)
	}
	errc, val, err := e.sys.os.EnterThread(e.enc, idx, args...)
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// ResumeThread resumes a specific suspended thread.
func (e *Enclave) ResumeThread(idx int) (Result, error) {
	if idx < 0 || idx >= len(e.enc.Threads) {
		return Result{}, fmt.Errorf("komodo: no thread %d", idx)
	}
	errc, val, err := e.sys.os.ResumeThread(e.enc, idx)
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// Run enters the enclave and transparently resumes across interrupts until
// it exits or faults.
func (e *Enclave) Run(args ...uint32) (Result, error) {
	errc, val, err := e.sys.os.RunToCompletion(e.enc, args...)
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// crossingDetail names how a world crossing came back, for span details.
func crossingDetail(errc kapi.Err, err error) string {
	switch {
	case err != nil:
		return "error"
	case errc == kapi.ErrSuccess:
		return "exit"
	case errc == kapi.ErrInterrupted:
		return "interrupted"
	case errc == kapi.ErrFault:
		return "fault"
	default:
		return fmt.Sprintf("err=%v", errc)
	}
}

// EnterCtx is Enter with a request context: when ctx carries an
// observability trace (internal/obs), the world crossing — dispatch
// through the monitor into the enclave and back — is recorded as an
// "enclave.enter" span. The simulated cycle cost of the same crossing
// appears separately as the monitor-level SMC span harvested from the
// telemetry recorder; this span is its wall-clock shadow.
func (e *Enclave) EnterCtx(ctx context.Context, args ...uint32) (Result, error) {
	sp := obs.FromContext(ctx).StartSpan("enclave.enter")
	errc, val, err := e.sys.os.Enter(e.enc, args...)
	sp.EndDetail(crossingDetail(errc, err))
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// ResumeCtx is Resume with a request context, recorded as an
// "enclave.resume" span (see EnterCtx).
func (e *Enclave) ResumeCtx(ctx context.Context) (Result, error) {
	sp := obs.FromContext(ctx).StartSpan("enclave.resume")
	errc, val, err := e.sys.os.Resume(e.enc)
	sp.EndDetail(crossingDetail(errc, err))
	if err != nil {
		return Result{}, err
	}
	return e.result(errc, val)
}

// RunCtx is Run with a request context: the initial enter and every
// interrupt resume each get their own span, so a trace shows how many
// times the enclave was suspended on the way to its exit.
func (e *Enclave) RunCtx(ctx context.Context, args ...uint32) (Result, error) {
	res, err := e.EnterCtx(ctx, args...)
	for err == nil && res.Interrupted {
		res, err = e.ResumeCtx(ctx)
	}
	return res, err
}

// Measurement returns the enclave's attestation measurement (public).
// Like a stats snapshot, this is an out-of-band observation: the cycle
// counter is rewound around the PageDB decode so reading a measurement
// never perturbs the simulated timeline (record/replay depends on this).
func (e *Enclave) Measurement() ([8]uint32, error) {
	m := e.sys.plat.Machine
	before := m.Cyc.Total()
	db, err := e.sys.plat.Monitor.DecodePageDB()
	m.Cyc.Reset()
	m.Cyc.Charge(before)
	if err != nil {
		return [8]uint32{}, err
	}
	as := db.Addrspace(e.enc.AS)
	if as == nil {
		return [8]uint32{}, fmt.Errorf("komodo: enclave destroyed")
	}
	return as.Measured, nil
}

// SparePages returns the page numbers of the enclave's spare pages, which
// enclave code needs for the dynamic-memory SVCs.
func (e *Enclave) SparePages() []uint32 {
	out := make([]uint32, len(e.enc.Spares))
	for i, p := range e.enc.Spares {
		out[i] = uint32(p)
	}
	return out
}

// WriteShared writes words into shared region idx at the given word
// offset (normal-world access).
func (e *Enclave) WriteShared(idx int, wordOff int, words []uint32) error {
	if idx >= len(e.enc.SharedPA) {
		return fmt.Errorf("komodo: no shared region %d", idx)
	}
	return e.sys.os.WriteInsecure(e.enc.SharedPA[idx]+uint32(wordOff*4), words)
}

// ReadShared reads n words from shared region idx at the word offset.
func (e *Enclave) ReadShared(idx int, wordOff, n int) ([]uint32, error) {
	if idx >= len(e.enc.SharedPA) {
		return nil, fmt.Errorf("komodo: no shared region %d", idx)
	}
	return e.sys.os.ReadInsecure(e.enc.SharedPA[idx]+uint32(wordOff*4), n)
}

// Destroy stops the enclave and releases all its pages.
func (e *Enclave) Destroy() error { return e.sys.os.Destroy(e.enc) }

// ScheduleInterrupt injects an IRQ after n simulated instructions — the
// knob tests and demos use to exercise suspend/resume.
func (s *System) ScheduleInterrupt(afterInstructions int64) {
	s.os.ScheduleInterrupt(afterInstructions)
}

// Snapshot captures the entire platform state (registers, memory, devices,
// cycle counter). Restore rewinds to it; the simulation then replays
// bit-identically. Snapshots do not capture the OS model's allocator
// bookkeeping — fork at quiescent points (no half-built enclaves).
type Snapshot = arm.Snapshot

// Snapshot captures the platform.
func (s *System) Snapshot() *Snapshot { return s.plat.Machine.Snapshot() }

// Rebase updates snap in place to capture the platform's current state,
// copying only the memory pages dirtied since snap was taken or last
// restored. It returns false, leaving snap untouched, when snap is no
// longer this System's restore baseline; take a fresh Snapshot then.
// Only the snapshot's sole owner may rebase it.
func (s *System) Rebase(snap *Snapshot) bool { return s.plat.Machine.Rebase(snap) }

// Restore rewinds the platform to a snapshot taken from this System (or an
// identically configured one).
//
// The golden-snapshot clone contract (pinned by TestRestoreGoldenBitIdentical
// and relied on by internal/pool): a snapshot taken at a quiescent point —
// enclaves finalised, nothing mid-SMC — can be restored any number of
// times, and each restore yields a bit-identical re-run: same enclave
// measurements, same MACs, same RNG stream, same cycle counts. Enclave
// handles created before the snapshot remain valid after a restore,
// because the OS-model bookkeeping they carry describes exactly the state
// the machine rewinds to. State created *after* the snapshot (enclaves
// loaded, counters advanced) is discarded by the restore; handles to such
// enclaves must not be used again.
func (s *System) Restore(snap *Snapshot) error { return s.plat.Machine.Restore(snap) }

// Pages gives access to the raw page handle of an enclave for advanced
// scenarios (the OS model's view).
func (e *Enclave) Pages() *nwos.Enclave { return e.enc }

// AddrspacePage returns the enclave's address-space page number.
func (e *Enclave) AddrspacePage() uint32 { return uint32(e.enc.AS) }

// PageNr re-exports the page-number type for advanced callers.
type PageNr = pagedb.PageNr
