package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// FlightRecorder retains the N slowest request traces seen so far — the
// requests worth explaining. Admission is by total wall duration: a new
// trace is kept if the recorder has room or if it is slower than the
// fastest trace currently kept (which is evicted). Everything it drops is
// counted, never silently lost.
type FlightRecorder struct {
	mu     sync.Mutex
	max    int
	seen   uint64
	traces []TraceData // sorted slowest-first
}

// DefaultFlightRecorderSize is the capacity used when none is given.
const DefaultFlightRecorderSize = 64

// NewFlightRecorder returns a recorder keeping up to max traces
// (DefaultFlightRecorderSize if max <= 0).
func NewFlightRecorder(max int) *FlightRecorder {
	if max <= 0 {
		max = DefaultFlightRecorderSize
	}
	return &FlightRecorder{max: max}
}

// Record offers a finished trace for retention.
func (f *FlightRecorder) Record(td TraceData) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	if len(f.traces) >= f.max && td.DurNS <= f.traces[len(f.traces)-1].DurNS {
		return
	}
	i := sort.Search(len(f.traces), func(i int) bool { return f.traces[i].DurNS < td.DurNS })
	f.traces = append(f.traces, TraceData{})
	copy(f.traces[i+1:], f.traces[i:])
	f.traces[i] = td
	if len(f.traces) > f.max {
		f.traces = f.traces[:f.max]
	}
}

// pass counts a trace offered but not retained, without building it.
func (f *FlightRecorder) pass() {
	f.mu.Lock()
	f.seen++
	f.mu.Unlock()
}

// WouldRetain reports whether a trace of the given duration would be kept
// if offered now — Edge.Traced asks this before paying to build a trace.
func (f *FlightRecorder) WouldRetain(durNS int64) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.traces) < f.max || durNS > f.traces[len(f.traces)-1].DurNS
}

// Cap returns the recorder's capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.max
}

// Slowest returns the retained traces, slowest first.
func (f *FlightRecorder) Slowest() []TraceData {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]TraceData(nil), f.traces...)
}

// Find returns the retained trace with the given trace-id, if any.
func (f *FlightRecorder) Find(traceID string) (TraceData, bool) {
	if f == nil {
		return TraceData{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, td := range f.traces {
		if td.TraceID == traceID {
			return td, true
		}
	}
	return TraceData{}, false
}

// Len returns how many traces are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.traces)
}

// Seen returns how many traces were ever offered.
func (f *FlightRecorder) Seen() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Dump is the JSON envelope WriteJSON emits and /v1/debug/traces serves.
type Dump struct {
	Seen     uint64      `json:"seen"`
	Retained int         `json:"retained"`
	Traces   []TraceData `json:"traces"` // slowest first
}

// WriteJSON writes the recorder's contents as an indented JSON Dump.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	d := Dump{Traces: f.Slowest(), Seen: f.Seen()}
	if d.Traces == nil {
		d.Traces = []TraceData{}
	}
	d.Retained = len(d.Traces)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
