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
	return r.newest(min(r.total, uint64(len(r.buf))))
}

// Since returns the retained events with sequence numbers at or above
// mark, oldest first. Events are appended in sequence order, so these
// form a suffix of the ring: Since walks back from the newest event to
// find where it starts and copies only that suffix, under the ring lock.
func (r *Ring) Since(mark uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cap64 := uint64(len(r.buf))
	n := uint64(0)
	for n < min(r.total, cap64) && r.buf[(r.total-1-n)%cap64].Seq >= mark {
		n++
	}
	if n == 0 {
		return nil
	}
	return r.newest(n)
}

// newest copies the n most recent events, oldest first. The caller holds
// r.mu and n is at most the number retained.
func (r *Ring) newest(n uint64) []Event {
	cap64 := uint64(len(r.buf))
	out := make([]Event, n)
	for i := range out {
		out[i] = r.buf[(r.total-n+uint64(i))%cap64]
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
