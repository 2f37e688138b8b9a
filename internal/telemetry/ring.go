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
	out := make([]Event, 0, min(r.Total(), uint64(r.Capacity())))
	r.EachSince(0, func(e Event) { out = append(out, e) })
	return out
}

// EachSince calls f on each retained event with a sequence number at or
// above mark (use Total() before a request as the mark), oldest first,
// reading the ring in place. Events are appended in sequence order, so
// these form a suffix of the ring: events older than its capacity are
// gone, but per-request harvesting never sees gaps in the middle.
// EachSince walks back from the newest event to find where the suffix
// starts. f runs under the ring lock, so like a Sink it must not call
// back into the ring or its Recorder.
func (r *Ring) EachSince(mark uint64, f func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cap64 := uint64(len(r.buf))
	n := uint64(0)
	for n < min(r.total, cap64) && r.buf[(r.total-1-n)%cap64].Seq >= mark {
		n++
	}
	for seq := r.total - n; seq < r.total; seq++ {
		f(r.buf[seq%cap64])
	}
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
