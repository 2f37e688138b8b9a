package telemetry

import (
	"sync"
	"sync/atomic"
)

// Ring is a bounded in-memory trace of boundary events. When full, the
// oldest events are overwritten (the dropped count is reported, never
// silently lost). Appends never allocate: the buffer is allocated once.
//
// Ring order is linearisable with respect to event sequence numbers: the
// sequence is assigned under the same lock that stores the event, so a
// snapshot is always a contiguous, strictly-increasing suffix of the
// event history.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever appended
}

// NewRing returns a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// appendNext assigns the next sequence number from seq, stores the event
// and forwards it to sink, all under the ring lock, so the sink sees
// events in sequence order too.
func (r *Ring) appendNext(seq *atomic.Uint64, e Event, sink Sink) {
	if r == nil {
		e.Seq = seq.Add(1) - 1
		sink.Emit(e)
		return
	}
	r.mu.Lock()
	e.Seq = seq.Add(1) - 1
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	sink.Emit(e)
	r.mu.Unlock()
}

// Append stores an event carrying its own sequence number (tests and
// external producers; instrumented code goes through Recorder).
func (r *Ring) Append(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	cap64 := uint64(len(r.buf))
	if n > cap64 {
		n = cap64
	}
	out := make([]Event, 0, n)
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%cap64])
	}
	return out
}

// Total returns how many events were ever appended.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Capacity returns the ring's fixed capacity.
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}
