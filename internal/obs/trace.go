// Package obs is the request-level observability plane of the serving
// stack: distributed-trace propagation (W3C traceparent), per-request span
// timelines that link wall-clock time at the HTTP edge to simulated cycles
// inside the monitor, lock-free latency histograms with quantile export,
// a Prometheus text-exposition writer, a flight recorder that retains
// the slowest request traces for post-hoc debugging, and the HTTP edge
// (Edge) that komodo-serve and komodo-gateway both serve through.
//
// The package deliberately has no dependencies on the rest of the
// repository (or on anything outside the standard library), so every layer
// — HTTP server, worker pool, komodo facade — can record into a Trace
// without import cycles. Correlation with the cycle-accurate telemetry
// layer (internal/telemetry) happens by tag: each Trace carries a non-zero
// uint64 SpanTag, the serving layer stamps it onto the telemetry
// recorder's boundary events for the duration of the request, and converts
// the tagged events back into cycle-domain spans afterwards.
//
// Two time domains coexist in one timeline:
//
//   - wall spans ("queue", "acquire", "execute", "restore",
//     "enclave.enter", ...) carry StartNS/DurNS offsets from the trace
//     start, measured with the host clock;
//   - monitor spans ("smc:KOM_SMC_ENTER", "svc:...") carry Cycles, the
//     simulated cost the telemetry recorder observed at the SMC boundary.
//     Their wall-clock duration is not knowable (the simulation has no
//     host-time per event), so DurNS is zero and they order by position.
//
// This mirrors the paper's evaluation method (§8, Table 3): costs are
// accounted where the privilege boundary is crossed, and the serving stack
// extends that accounting out to the network edge.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace-id.
type TraceID [16]byte

// SpanID is the 8-byte W3C parent-id/span-id.
type SpanID [8]byte

// String renders the id as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the id as 16 lowercase hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is all-zero (invalid per the W3C spec).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is all-zero (invalid per the W3C spec).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// ParseTraceparent parses a W3C trace-context header
// (version-traceid-parentid-flags, e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").
// It accepts any version byte except "ff" and rejects all-zero ids.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, sid, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return tid, sid, false
	}
	if tid.IsZero() || sid.IsZero() {
		return tid, sid, false
	}
	return tid, sid, true
}

// randomID fills b with cryptographic randomness, never all-zero.
func randomID(b []byte) {
	for {
		if _, err := rand.Read(b); err != nil {
			// crypto/rand failure is unrecoverable on every supported
			// platform; fall back to a fixed non-zero pattern rather than
			// panicking the serving path.
			for i := range b {
				b[i] = byte(i + 1)
			}
			return
		}
		for _, x := range b {
			if x != 0 {
				return
			}
		}
	}
}

// Span is one timeline entry of a trace. Wall spans have DurNS from the
// host clock; monitor spans have Cycles from the simulated platform and
// zero DurNS (see the package comment for the two time domains).
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`         // offset from the trace start
	DurNS   int64  `json:"dur_ns"`           // wall-clock duration (0 for cycle-domain spans)
	Cycles  uint64 `json:"cycles,omitempty"` // simulated cycles (monitor spans)
	Detail  string `json:"detail,omitempty"` // free-form annotation (call result, action taken)
}

// TraceData is the immutable JSON view of a finished (or in-progress)
// trace — what /v1/debug/traces serves and cmd/komodo-trace renders.
type TraceData struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`             // this service's root span
	ParentID string    `json:"parent_id,omitempty"` // inbound parent, if propagated
	Endpoint string    `json:"endpoint"`
	Outcome  string    `json:"outcome,omitempty"`
	Start    time.Time `json:"start"`
	DurNS    int64     `json:"dur_ns"`
	Replay   string    `json:"replay,omitempty"` // path of the persisted replay trace, if recorded
	Spans    []Span    `json:"spans"`

	// Attachment is the value a handler attached with Trace.Attach, for
	// an Edge's finish hook to consume. It is never serialised, and the
	// flight recorder never keeps it.
	Attachment any `json:"-"`
}

// InlineSpans is how many spans a Trace records without allocating; past
// it, spans spill to a growing slice.
const InlineSpans = 24

// span is one recorded timeline entry, its strings the static ones the
// instrumentation passed. With hasN, its detail is followed by n in
// decimal, formatted only when the trace is built.
type span struct {
	Span
	n    int64
	hasN bool
}

func (s *span) render() Span {
	sp := s.Span
	if s.hasN {
		sp.Detail += strconv.FormatInt(s.n, 10)
	}
	return sp
}

// Trace accumulates the span timeline of one request. All methods are safe
// for concurrent use and safe on a nil receiver (a nil *Trace records
// nothing), so instrumented layers never branch on "tracing enabled?".
//
// Recording is cheap and fixed: spans go into an inline record and
// nothing is named, hex-encoded or formatted until Data or Finish builds
// the TraceData. Edge.Traced builds it only for traces the flight
// recorder will retain, and reuses the Trace once the handler returns, so
// no layer may keep a *Trace past the request it was handed with.
type Trace struct {
	mu         sync.Mutex
	id         TraceID
	root       SpanID
	parent     SpanID // inbound parent (zero when minted locally)
	endpoint   string
	outcome    string
	start      time.Time
	dur        time.Duration
	attachment any
	spans      []span // backed by inline until it outgrows it
	inline     [InlineSpans]span
}

// NewTrace starts a trace for one request against the named endpoint. If
// traceparent is a valid W3C header the inbound trace-id is adopted and
// the inbound span becomes the parent; otherwise a fresh trace-id is
// minted. A new root span-id is always minted for this service.
func NewTrace(endpoint, traceparent string) *Trace {
	t := new(Trace)
	t.reset(endpoint, traceparent)
	return t
}

// reset readies t for a new request, as NewTrace describes. The caller
// has exclusive use of t.
func (t *Trace) reset(endpoint, traceparent string) {
	t.endpoint, t.outcome, t.dur, t.attachment = endpoint, "", 0, nil
	t.spans = t.inline[:0]
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		t.id, t.parent = tid, sid
	} else {
		randomID(t.id[:])
		t.parent = SpanID{}
	}
	randomID(t.root[:])
	t.start = time.Now()
}

// ID returns the trace-id (zero on a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// SpanTag returns the non-zero uint64 correlation tag derived from the
// trace's root span-id, for stamping external event streams (the
// telemetry recorder's boundary events). Returns 0 on a nil trace.
func (t *Trace) SpanTag() uint64 {
	if t == nil {
		return 0
	}
	return binary.BigEndian.Uint64(t.root[:])
}

// Traceparent renders the outbound W3C header for this trace's root span.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], t.id[:])
	b[35] = '-'
	hex.Encode(b[36:52], t.root[:])
	copy(b[52:], "-01")
	return string(b[:])
}

// Attach hands v to the Edge's finish hook, which sees it as the built
// TraceData's Attachment if the trace is retained. An unretained trace
// drops it. A later Attach replaces an earlier one.
func (t *Trace) Attach(v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attachment = v
	t.mu.Unlock()
}

// SpanHandle is an open wall-clock span; End (or EndDetail) closes it and
// appends it to the trace. The zero/nil handle is a no-op.
type SpanHandle struct {
	t     *Trace
	name  string
	start time.Time
}

// StartSpan opens a wall-clock span. Returns a no-op handle on nil traces.
func (t *Trace) StartSpan(name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, start: time.Now()}
}

// End closes the span with no annotation.
func (h SpanHandle) End() { h.end(span{}) }

// EndDetail closes the span with a free-form annotation.
func (h SpanHandle) EndDetail(detail string) { h.end(span{Span: Span{Detail: detail}}) }

// EndDetailN closes the span with the annotation detail followed by n in
// decimal ("worker=" and 3 read "worker=3"), formatted only if the trace
// is built.
func (h SpanHandle) EndDetailN(detail string, n int64) {
	h.end(span{Span: Span{Detail: detail}, n: n, hasN: true})
}

func (h SpanHandle) end(s span) {
	if h.t == nil {
		return
	}
	s.Name = h.name
	s.DurNS = time.Since(h.start).Nanoseconds()
	s.StartNS = h.start.Sub(h.t.start).Nanoseconds()
	h.t.add(s)
}

// AddCycleSpan appends a cycle-domain span (a monitor-boundary event): no
// wall duration, Cycles carries the simulated cost. StartNS is stamped at
// insertion time so the span sorts after the wall spans that enclosed it.
func (t *Trace) AddCycleSpan(name string, cycles uint64, detail string) {
	t.addCycles(span{Span: Span{Name: name, Cycles: cycles, Detail: detail}})
}

// AddCycleSpanN is AddCycleSpan with the annotation detail followed by n
// in decimal, formatted only if the trace is built.
func (t *Trace) AddCycleSpanN(name string, cycles uint64, detail string, n int64) {
	t.addCycles(span{Span: Span{Name: name, Cycles: cycles, Detail: detail}, n: n, hasN: true})
}

func (t *Trace) addCycles(s span) {
	if t == nil {
		return
	}
	s.StartNS = time.Since(t.start).Nanoseconds()
	t.add(s)
}

func (t *Trace) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Finish closes the trace with the given outcome ("ok", "rejected", ...)
// and returns its immutable data view. Finish may be called once; the
// trace must not be recorded into afterwards.
func (t *Trace) Finish(outcome string) TraceData {
	if t == nil {
		return TraceData{}
	}
	t.finish(outcome)
	return t.Data()
}

// finish closes the trace without building it and returns its duration.
func (t *Trace) finish(outcome string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outcome = outcome
	t.dur = time.Since(t.start)
	return t.dur
}

// Data builds the trace's current data view without closing it.
func (t *Trace) Data() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	td := TraceData{
		TraceID:    t.id.String(),
		SpanID:     t.root.String(),
		Endpoint:   t.endpoint,
		Outcome:    t.outcome,
		Start:      t.start,
		DurNS:      t.dur.Nanoseconds(),
		Attachment: t.attachment,
	}
	if len(t.spans) > 0 {
		td.Spans = make([]Span, len(t.spans))
	}
	for i := range t.spans {
		td.Spans[i] = t.spans[i].render()
	}
	if !t.parent.IsZero() {
		td.ParentID = t.parent.String()
	}
	return td
}

// ctxKey is the context key for the active trace.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the active trace, or nil — and every method on a
// nil *Trace is a free no-op, so callers never need to check.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
