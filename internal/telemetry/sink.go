package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink receives every boundary event as it is recorded. Implementations
// must be safe for concurrent Emit calls. The hot path calls Emit with a
// value Event, so a sink that does nothing costs only the interface call.
// Emit runs under the recorder's trace-ring lock, so events arrive in
// sequence order; an Emit must not call back into the Recorder, and the
// time it takes holds up other producers and ring readers.
type Sink interface {
	Emit(Event)
}

// NopSink discards events. It is the default sink and must cost nothing
// measurable on the SMC hot path (BenchmarkTelemetryNopOverhead).
type NopSink struct{}

// Emit discards the event.
func (NopSink) Emit(Event) {}

// MemorySink accumulates every event in memory, unbounded — unlike the
// recorder's ring, which retains only a suffix. Intended for tests and
// short interactive runs.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything received so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Len returns how many events were received.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// JSONLSink streams each event as one JSON object per line — the exchange
// format cmd/komodo-stats summarises. Writes are serialised; encoding
// errors are retained and reported by Err (Emit cannot fail). After the
// first error the sink stops writing, but keeps count: every event that
// could not be durably written — including the one that hit the error —
// shows up in Dropped, so a truncated stream is detectable rather than
// silently short.
type JSONLSink struct {
	mu      sync.Mutex
	enc     *json.Encoder
	err     error
	dropped uint64
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(jsonEvent(e))
	}
	if s.err != nil {
		s.dropped++
	}
	s.mu.Unlock()
}

// Err returns the first write/encode error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dropped returns how many events were discarded because of an earlier
// write error (the event whose write failed counts too: a failed Encode
// may leave a torn line, so it is not durably written either).
func (s *JSONLSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// jsonEvent is the wire form of an Event: kind as its string name, plus
// a resolved call name where one exists, so the JSONL stream is readable
// without the binary's constant tables.
type jsonEvent Event

// MarshalJSON renders the event with symbolic kind and call names.
func (e jsonEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq    uint64    `json:"seq"`
		Kind   string    `json:"kind"`
		Call   uint32    `json:"call"`
		Name   string    `json:"name,omitempty"`
		Args   [4]uint32 `json:"args"`
		Err    uint32    `json:"err"`
		Val    uint32    `json:"val"`
		Cycles uint64    `json:"cycles"`
		Span   uint64    `json:"span,omitempty"`
	}{e.Seq, Kind(e.Kind).String(), e.Call, EventName(Event(e)), e.Args, e.Err, e.Val, e.Cycles, e.Span})
}

// EventName resolves the symbolic name of an event's Call field according
// to its kind ("" if unknown).
func EventName(e Event) string {
	switch e.Kind {
	case KindSMC:
		return SMCName(e.Call)
	case KindSVC:
		return SVCName(e.Call)
	case KindLifecycle:
		if e.Call < uint32(NumLifecycle) {
			return Lifecycle(e.Call).String()
		}
	case KindPageMove:
		if e.Call < NumPageMoves {
			return pageMoveNames[e.Call]
		}
	}
	return ""
}
