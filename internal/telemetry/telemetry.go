// Package telemetry is the observability layer of the simulated enclave
// stack: counters, cycle histograms, and boundary-event tracing for every
// crossing between the normal world, the monitor, and enclaves.
//
// The paper evaluates Komodo almost entirely by measurement — Table 3's
// per-SMC cycle counts, Figure 5's enter/exit breakdowns, §8's "where do
// the cycles go" analysis. This package makes the same attribution
// possible in the reproduction: instead of one end-to-end cycle total,
// every SMC and SVC is a named series with call counts, error counts,
// cycle sums, a log2 cycle histogram, and a dispatch-vs-body split
// (world-switch boilerplate vs. handler work, the distinction §8.1's
// crossing analysis turns on).
//
// Design constraints, in order:
//
//  1. The hot path must not allocate. Observing an SMC is a handful of
//     atomic adds, a store into a preallocated ring slot, and a method
//     call on the configured sink. The nop sink must cost nothing
//     measurable next to the cheapest SMC (BenchmarkTelemetryNopOverhead
//     demonstrates this).
//  2. Counters must be exact under concurrency. The §9.2 multi-core
//     sketch (nwos.LockedDriver) serialises SMCs, but observers read
//     snapshots concurrently, and nothing stops two monitors sharing a
//     recorder — so every series is atomic.
//  3. A nil *Recorder is a valid, free recorder. Every method is
//     nil-receiver safe, so instrumented code never branches on
//     "telemetry enabled?".
//
// The boundary-event trace ring follows Guardian (arXiv:2105.05962),
// which validates the *orderliness* of enclave interactions by observing
// the host–enclave interface: each SMC appends one event carrying its
// call number, arguments, result, and cycle cost, and tests assert
// ordering properties against the ring.
package telemetry

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/kapi"
)

// MaxCall bounds the per-call series arrays. SMC and SVC numbers are
// small consecutive integers (1..12 and 1..11); anything >= MaxCall is
// folded into series 0, the "unknown call" slot.
const MaxCall = 16

// NumHistBuckets is the number of log2 cycle-histogram buckets per call
// series. Bucket 0 counts zero-cycle observations; bucket b counts
// observations in [2^(b-1), 2^b); the last bucket is unbounded above.
// 2^23 cycles ≈ 9 ms at the simulated 900 MHz clock — beyond any single
// monitor call.
const NumHistBuckets = 24

// HistBucket returns the histogram bucket index for a cycle count.
func HistBucket(cycles uint64) int {
	b := bits.Len64(cycles) // 0 for 0, 1+floor(log2) otherwise
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	return b
}

// Lifecycle enumerates enclave lifecycle transitions, observed at the
// OS-driver boundary (internal/nwos).
type Lifecycle uint8

const (
	LifeInit     Lifecycle = iota // InitAddrspace succeeded
	LifeFinalise                  // Finalise succeeded: measurement fixed
	LifeEnter                     // Enter issued
	LifeResume                    // Resume issued
	LifeSuspend                   // execution returned ErrInterrupted
	LifeExit                      // execution returned ErrSuccess
	LifeFault                     // execution returned ErrFault
	LifeStop                      // Stop succeeded
	LifeRemove                    // Remove succeeded

	NumLifecycle
)

var lifecycleNames = [NumLifecycle]string{
	"init", "finalise", "enter", "resume", "suspend", "exit", "fault", "stop", "remove",
}

func (l Lifecycle) String() string {
	if l < NumLifecycle {
		return lifecycleNames[l]
	}
	return "lifecycle(?)"
}

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSMC is one completed secure monitor call: Call/Args are the
	// request, Err/Val the R0/R1 results, Cycles the full cost from SMC
	// entry to exception return.
	KindSMC Kind = iota
	// KindSVC is one completed supervisor call from an executing enclave.
	KindSVC
	// KindLifecycle is an enclave lifecycle transition; Call holds the
	// Lifecycle code and Val the page it concerns.
	KindLifecycle
	// KindPageMove is a secure↔insecure page movement; Call holds the
	// PageMove code and Val the page or address concerned.
	KindPageMove
)

func (k Kind) String() string {
	switch k {
	case KindSMC:
		return "smc"
	case KindSVC:
		return "svc"
	case KindLifecycle:
		return "lifecycle"
	case KindPageMove:
		return "pagemove"
	}
	return "kind(?)"
}

// PageMove codes (the Call field of KindPageMove events): the monitor's
// kapi.Move* codes, under the names this package's events use.
const (
	MoveToSecure       = kapi.MoveToSecure
	MoveScrubbed       = kapi.MoveScrubbed
	MoveZeroFilled     = kapi.MoveZeroFilled
	MoveInsecureShared = kapi.MoveInsecureShared

	NumPageMoves = kapi.NumPageMoves
)

var pageMoveNames = [NumPageMoves]string{
	"to-secure", "scrubbed", "zero-filled", "insecure-shared",
}

// Event is one boundary event. Events are fixed-size values so the hot
// path can record them without allocating.
type Event struct {
	Seq    uint64    `json:"seq"`
	Kind   Kind      `json:"kind"`
	Call   uint32    `json:"call"`
	Args   [4]uint32 `json:"args"`
	Err    uint32    `json:"err"`
	Val    uint32    `json:"val"`
	Cycles uint64    `json:"cycles"`
	// Span is the request-correlation tag active when the event was
	// recorded (see Recorder.SetSpanTag); 0 means "no request context".
	// The serving layer uses it to attribute monitor-boundary events to
	// the distributed trace of the HTTP request that caused them.
	Span uint64 `json:"span,omitempty"`
}

// callSeries is the atomic counter block of one SMC or SVC number.
type callSeries struct {
	count    atomic.Uint64
	errors   atomic.Uint64
	cycles   atomic.Uint64
	dispatch atomic.Uint64 // entry/exit boilerplate share of cycles
	body     atomic.Uint64 // handler share of cycles
	lastDisp atomic.Uint64
	lastBody atomic.Uint64
	hist     [NumHistBuckets]atomic.Uint64
}

func (s *callSeries) observe(total, dispatchCyc uint64, isErr bool) {
	s.count.Add(1)
	if isErr {
		s.errors.Add(1)
	}
	s.cycles.Add(total)
	body := total - dispatchCyc
	s.dispatch.Add(dispatchCyc)
	s.body.Add(body)
	s.lastDisp.Store(dispatchCyc)
	s.lastBody.Store(body)
	s.hist[HistBucket(total)].Add(1)
}

// Recorder is the telemetry hub for one simulated platform, and the
// monitor's kapi.Observer. All methods are safe for concurrent use and
// safe on a nil receiver (a nil Recorder records nothing).
type Recorder struct {
	sink    Sink
	ring    *Ring
	seq     atomic.Uint64
	spanTag atomic.Uint64

	smc [MaxCall]callSeries
	svc [MaxCall]callSeries

	lifecycle [NumLifecycle]atomic.Uint64
	pageMoves [NumPageMoves]atomic.Uint64

	// Enter/Resume setup cycles (SMC entry to first enclave instruction):
	// the Table 3 "Enter only" / "Resume only" rows as running series.
	enterSetup  atomic.Uint64
	resumeSetup atomic.Uint64
}

// DefaultRingCapacity is the trace-ring size used by New.
const DefaultRingCapacity = 1024

// New returns a Recorder with a nop sink and a DefaultRingCapacity ring.
func New() *Recorder {
	return &Recorder{sink: NopSink{}, ring: NewRing(DefaultRingCapacity)}
}

// SetSink replaces the event sink (nil restores the nop sink). Configure
// sinks before instrumented code runs; the field itself is not locked.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		s = NopSink{}
	}
	r.sink = s
}

// Ring exposes the boundary-event trace ring.
func (r *Recorder) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// SetSpanTag sets the request-correlation tag stamped onto every event
// recorded from now on (0 clears it). The serving layer brackets each
// request with SetSpanTag(tag)/SetSpanTag(0) while it has exclusive use
// of the platform, then harvests the tagged events from the ring to build
// the request's monitor-level span timeline.
func (r *Recorder) SetSpanTag(tag uint64) {
	if r == nil {
		return
	}
	r.spanTag.Store(tag)
}

// SpanTag returns the currently active correlation tag.
func (r *Recorder) SpanTag() uint64 {
	if r == nil {
		return 0
	}
	return r.spanTag.Load()
}

// EventsSince returns the ring's retained events with sequence numbers at
// or above mark (use Ring().Total() before a request as the mark). Events
// older than the ring capacity are gone; what remains is still a
// contiguous suffix, so per-request harvesting never sees gaps in the
// middle. Only that suffix is copied, so the cost follows the events
// since mark, not the ring's capacity.
func (r *Recorder) EventsSince(mark uint64) []Event {
	if r == nil {
		return nil
	}
	return r.ring.Since(mark)
}

// emit assigns a sequence number, appends to the ring, and forwards to the
// sink. All three happen under the ring lock, so ring order and sink order
// always match sequence order (linearisability of the trace is asserted by
// the concurrency suite). Sinks must not call back into the Recorder.
func (r *Recorder) emit(e Event) {
	e.Span = r.spanTag.Load()
	r.ring.appendNext(&r.seq, e, r.sink)
}

// IsError reports whether an SMC or SVC return code counts as an error
// in CallStats.Errors (and so in /v1/stats, /metrics and komodo-stats):
// any code but kapi.ErrSuccess, KOM_ERR_INTERRUPTED included.
func IsError(errc uint32) bool { return errc != uint32(kapi.ErrSuccess) }

// ObserveSMC records one completed SMC: counters, histogram, split, and a
// KindSMC trace event. dispatchCyc is the share of total spent on
// entry/exit boilerplate rather than the handler body.
func (r *Recorder) ObserveSMC(call uint32, args [4]uint32, errc, val uint32, total, dispatchCyc uint64) {
	if r == nil {
		return
	}
	idx := call
	if idx >= MaxCall {
		idx = 0
	}
	r.smc[idx].observe(total, dispatchCyc, IsError(errc))
	r.emit(Event{Kind: KindSMC, Call: call, Args: args, Err: errc, Val: val, Cycles: total})
}

// ObserveSVC records one completed supervisor call from an enclave.
func (r *Recorder) ObserveSVC(call uint32, errc uint32, cyc uint64) {
	if r == nil {
		return
	}
	idx := call
	if idx >= MaxCall {
		idx = 0
	}
	r.svc[idx].observe(cyc, 0, IsError(errc))
	r.emit(Event{Kind: KindSVC, Call: call, Err: errc, Cycles: cyc})
}

// ObserveEnterSetup records the cycles from SMC entry to the first enclave
// instruction of an Enter (resume=false) or Resume (resume=true).
func (r *Recorder) ObserveEnterSetup(resume bool, cyc uint64) {
	if r == nil {
		return
	}
	if resume {
		r.resumeSetup.Store(cyc)
	} else {
		r.enterSetup.Store(cyc)
	}
}

// ObserveLifecycle records an enclave lifecycle transition for page pg.
func (r *Recorder) ObserveLifecycle(l Lifecycle, pg uint32) {
	if r == nil || l >= NumLifecycle {
		return
	}
	r.lifecycle[l].Add(1)
	r.emit(Event{Kind: KindLifecycle, Call: uint32(l), Val: pg})
}

// ObservePageMove records a secure↔insecure page movement.
func (r *Recorder) ObservePageMove(move uint32, pg uint32) {
	if r == nil || move >= NumPageMoves {
		return
	}
	r.pageMoves[move].Add(1)
	r.emit(Event{Kind: KindPageMove, Call: move, Val: pg})
}

// SMCCount returns the number of completed SMCs recorded for call.
func (r *Recorder) SMCCount(call uint32) uint64 {
	if r == nil || call >= MaxCall {
		return 0
	}
	return r.smc[call].count.Load()
}

// SVCCount returns the number of completed SVCs recorded for call.
func (r *Recorder) SVCCount(call uint32) uint64 {
	if r == nil || call >= MaxCall {
		return 0
	}
	return r.svc[call].count.Load()
}

// LastSplit returns the dispatch/body cycle split of the most recent
// occurrence of the given SMC, or zeros if it never ran.
func (r *Recorder) LastSplit(call uint32) (dispatch, body uint64) {
	if r == nil || call >= MaxCall {
		return 0, 0
	}
	return r.smc[call].lastDisp.Load(), r.smc[call].lastBody.Load()
}

// LifecycleCount returns how many times lifecycle transition l was seen.
func (r *Recorder) LifecycleCount(l Lifecycle) uint64 {
	if r == nil || l >= NumLifecycle {
		return 0
	}
	return r.lifecycle[l].Load()
}
