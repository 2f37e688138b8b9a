package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/kapi"
)

func TestHistBucket(t *testing.T) {
	cases := []struct {
		cyc  uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 22, 23}, {1 << 40, NumHistBuckets - 1}, {^uint64(0), NumHistBuckets - 1},
	}
	for _, c := range cases {
		if got := HistBucket(c.cyc); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.cyc, got, c.want)
		}
	}
}

func TestObserveSMCSeries(t *testing.T) {
	r := New()
	r.ObserveSMC(kapi.SMCEnter, [4]uint32{3, 0, 0, 0}, uint32(kapi.ErrSuccess), 42, 700, 160)
	r.ObserveSMC(kapi.SMCEnter, [4]uint32{3, 0, 0, 0}, uint32(kapi.ErrFault), 4, 300, 160)
	r.ObserveSMC(kapi.SMCGetPhysPages, [4]uint32{}, uint32(kapi.ErrSuccess), 254, 123, 100)

	if got := r.SMCCount(kapi.SMCEnter); got != 2 {
		t.Fatalf("SMCCount(Enter) = %d", got)
	}
	s := r.Snapshot()
	var enter, getpp *CallStats
	for i := range s.SMC {
		switch s.SMC[i].Call {
		case kapi.SMCEnter:
			enter = &s.SMC[i]
		case kapi.SMCGetPhysPages:
			getpp = &s.SMC[i]
		}
	}
	if enter == nil || getpp == nil {
		t.Fatalf("snapshot missing series: %+v", s.SMC)
	}
	if enter.Name != "KOM_SMC_ENTER" || enter.Count != 2 || enter.Errors != 1 {
		t.Errorf("enter series: %+v", enter)
	}
	if enter.Cycles != 1000 || enter.DispatchCycles != 320 || enter.BodyCycles != 680 {
		t.Errorf("enter cycles: %+v", enter)
	}
	if enter.DispatchCycles+enter.BodyCycles != enter.Cycles {
		t.Errorf("split does not sum: %+v", enter)
	}
	if enter.Hist[HistBucket(700)] == 0 || enter.Hist[HistBucket(300)] == 0 {
		t.Errorf("histogram not filled: %v", enter.Hist)
	}
	if getpp.Mean() != 123 {
		t.Errorf("getpp mean = %d", getpp.Mean())
	}
	if d, b := r.LastSplit(kapi.SMCEnter); d != 160 || b != 140 {
		t.Errorf("LastSplit = (%d, %d)", d, b)
	}
}

func TestUnknownCallFoldsToSlotZero(t *testing.T) {
	r := New()
	r.ObserveSMC(999, [4]uint32{}, uint32(kapi.ErrInvalidArg), 0, 50, 50)
	if got := r.SMCCount(0); got != 1 {
		t.Fatalf("unknown call not folded: slot0 = %d", got)
	}
	s := r.Snapshot()
	if len(s.SMC) != 1 || s.SMC[0].Name != "unknown" {
		t.Fatalf("snapshot: %+v", s.SMC)
	}
	// The trace still records the original call number.
	evs := r.Ring().Snapshot()
	if len(evs) != 1 || evs[0].Call != 999 {
		t.Fatalf("ring: %+v", evs)
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.ObserveSMC(1, [4]uint32{}, 0, 0, 1, 1)
	r.ObserveSVC(1, 0, 1)
	r.ObserveLifecycle(LifeEnter, 0)
	r.ObservePageMove(MoveToSecure, 0)
	r.ObserveEnterSetup(false, 1)
	r.SetSink(&MemorySink{})
	if r.SMCCount(1) != 0 || r.Ring() != nil {
		t.Fatal("nil recorder recorded something")
	}
	s := r.Snapshot()
	if len(s.SMC) != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

func TestRingWraparound(t *testing.T) {
	r := &Recorder{sink: NopSink{}, ring: NewRing(4)}
	for i := uint32(0); i < 10; i++ {
		r.ObserveSVC(kapi.SVCGetRandom, 0, uint64(i))
	}
	ring := r.Ring()
	if ring.Total() != 10 || ring.Dropped() != 6 || ring.Capacity() != 4 {
		t.Fatalf("total=%d dropped=%d cap=%d", ring.Total(), ring.Dropped(), ring.Capacity())
	}
	evs := ring.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot len %d", len(evs))
	}
	// Oldest-first, contiguous suffix of the sequence.
	for i, e := range evs {
		if e.Seq != uint64(6+i) {
			t.Fatalf("event %d has seq %d: %+v", i, e.Seq, evs)
		}
	}
}

func TestRingLinearisableUnderConcurrency(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.ObserveSMC(kapi.SMCGetPhysPages, [4]uint32{}, 0, 254, 123, 100)
			}
		}()
	}
	wg.Wait()
	if got := r.SMCCount(kapi.SMCGetPhysPages); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	evs := r.Ring().Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not contiguous at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if r.Ring().Total() != workers*perWorker {
		t.Fatalf("ring total = %d", r.Ring().Total())
	}
}

func TestMemorySink(t *testing.T) {
	r := New()
	sink := &MemorySink{}
	r.SetSink(sink)
	r.ObserveLifecycle(LifeInit, 7)
	r.ObserveLifecycle(LifeFinalise, 7)
	if sink.Len() != 2 {
		t.Fatalf("sink len %d", sink.Len())
	}
	evs := sink.Events()
	if evs[0].Kind != KindLifecycle || Lifecycle(evs[0].Call) != LifeInit || evs[0].Val != 7 {
		t.Fatalf("event 0: %+v", evs[0])
	}
	if r.LifecycleCount(LifeInit) != 1 {
		t.Fatal("lifecycle counter")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := New()
	r.SetSink(sink)
	r.ObserveSMC(kapi.SMCEnter, [4]uint32{3, 1, 2, 0}, uint32(kapi.ErrSuccess), 9, 738, 160)
	r.ObservePageMove(MoveScrubbed, 5)
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %q", lines)
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "smc" || first["name"] != "KOM_SMC_ENTER" {
		t.Fatalf("first line: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["kind"] != "pagemove" || second["name"] != "scrubbed" {
		t.Fatalf("second line: %v", second)
	}
}

// TestJSONLSinkOrderMatchesRing: under concurrent producers the JSONL
// stream carries every event once, in sequence order, and agrees line by
// line with the ring. The sink is fed under the ring lock, so a producer
// cannot overtake another between taking a sequence number and emitting.
func TestJSONLSinkOrderMatchesRing(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := New()
	r.SetSink(sink)
	const workers = 8
	const perWorker = DefaultRingCapacity / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.ObserveSMC(kapi.SMCGetPhysPages, [4]uint32{uint32(w)}, 0, 254, 123, 100)
			}
		}()
	}
	wg.Wait()
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	ring := r.Ring().Snapshot()
	if len(lines) != workers*perWorker || len(ring) != len(lines) {
		t.Fatalf("%d lines and %d ring events, want %d of each", len(lines), len(ring), workers*perWorker)
	}
	for i, line := range lines {
		var got struct {
			Seq  uint64    `json:"seq"`
			Args [4]uint32 `json:"args"`
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint64(i) {
			t.Fatalf("line %d has seq %d: sink order differs from sequence order", i, got.Seq)
		}
		if ring[i].Seq != got.Seq || ring[i].Args != got.Args {
			t.Fatalf("line %d (seq %d, args %v) != ring event %d (seq %d, args %v)",
				i, got.Seq, got.Args, i, ring[i].Seq, ring[i].Args)
		}
	}
}

// failAfter fails every write after the first n bytes worth of calls.
type failAfter struct {
	writes int
	n      int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errShortDisk
	}
	return len(p), nil
}

var errShortDisk = &shortDiskError{}

type shortDiskError struct{}

func (*shortDiskError) Error() string { return "disk full" }

// TestJSONLSinkCountsDropped pins that a JSONL sink that hits a write
// error reports every event it subsequently discards — including the one
// whose write failed — instead of silently truncating the stream.
func TestJSONLSinkCountsDropped(t *testing.T) {
	sink := NewJSONLSink(&failAfter{n: 2})
	r := New()
	r.SetSink(sink)
	r.ObserveLifecycle(LifeInit, 1)
	r.ObserveLifecycle(LifeFinalise, 1)
	if sink.Err() != nil || sink.Dropped() != 0 {
		t.Fatalf("healthy sink: err=%v dropped=%d", sink.Err(), sink.Dropped())
	}
	r.ObserveLifecycle(LifeEnter, 1) // write fails here
	if sink.Err() == nil {
		t.Fatal("write error not retained")
	}
	if sink.Dropped() != 1 {
		t.Fatalf("failing event not counted dropped: %d", sink.Dropped())
	}
	for i := 0; i < 5; i++ {
		r.ObserveLifecycle(LifeExit, 1)
	}
	if sink.Dropped() != 6 {
		t.Fatalf("post-error events not counted: dropped=%d, want 6", sink.Dropped())
	}
	if sink.Err().Error() != "disk full" {
		t.Fatalf("first error not sticky: %v", sink.Err())
	}
}

func TestSpanTagStampsEvents(t *testing.T) {
	r := New()
	r.ObserveSVC(kapi.SVCGetRandom, 0, 10) // before any tag
	mark := r.Ring().Total()
	r.SetSpanTag(0xfeedface)
	r.ObserveSMC(kapi.SMCEnter, [4]uint32{1}, 0, 0, 700, 160)
	r.ObserveSVC(kapi.SVCGetRandom, 0, 80)
	r.SetSpanTag(0)
	r.ObserveSVC(kapi.SVCGetRandom, 0, 20) // after the tag cleared

	evs := r.Ring().Snapshot()
	if len(evs) != 4 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Span != 0 || evs[3].Span != 0 {
		t.Fatalf("untagged events carry a span: %+v", evs)
	}
	if evs[1].Span != 0xfeedface || evs[2].Span != 0xfeedface {
		t.Fatalf("tagged events lost the span: %+v", evs)
	}

	var since []Event
	r.Ring().EachSince(mark, func(e Event) { since = append(since, e) })
	if len(since) != 3 || since[0].Seq != mark {
		t.Fatalf("EachSince(%d): %+v", mark, since)
	}
	var tagged int
	for _, e := range since {
		if e.Span == 0xfeedface {
			tagged++
		}
	}
	if tagged != 2 {
		t.Fatalf("tagged harvest: %d, want 2", tagged)
	}

	var nilR *Recorder
	nilR.SetSpanTag(1) // must not panic
	nilR.Ring().EachSince(0, func(Event) { t.Fatal("nil recorder visited an event") })
	if nilR.SpanTag() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.ObserveSMC(kapi.SMCEnter, [4]uint32{}, 0, 0, 738, 160)
	r.ObserveLifecycle(LifeEnter, 3)
	s := r.Snapshot()
	s.TLB = TLBStats{Hits: 10, Misses: 2, Fills: 2, Flushes: 1}
	s.InsnClasses = map[string]uint64{"alu": 100}
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TLB.Hits != 10 || back.Lifecycle["enter"] != 1 || len(back.SMC) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestHotPathDoesNotAllocate pins the zero-allocation contract of the
// observation hot path with the nop sink.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := New()
	args := [4]uint32{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveSMC(kapi.SMCEnter, args, 0, 0, 738, 160)
		r.ObserveSVC(kapi.SVCGetRandom, 0, 80)
		r.ObservePageMove(MoveToSecure, 1)
		r.ObserveLifecycle(LifeEnter, 1)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v times per observation batch", allocs)
	}
}

// BenchmarkObserveSMC measures the raw cost of one SMC observation with
// the nop sink (the full-stack comparison lives in the repo root's
// BenchmarkTelemetryNopOverhead).
func BenchmarkObserveSMC(b *testing.B) {
	r := New()
	args := [4]uint32{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ObserveSMC(kapi.SMCEnter, args, 0, 0, 738, 160)
	}
}
