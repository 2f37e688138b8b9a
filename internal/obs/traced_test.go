package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// nopWriter is a ResponseWriter that keeps nothing but its header map, so
// a benchmark or allocation count sees only what Traced itself costs.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// signLike records the span shape of a durable sign: six wall spans, two
// of them with a numbered detail, then four cycle spans.
func signLike(w http.ResponseWriter, r *http.Request) {
	tr := FromContext(r.Context())
	tr.StartSpan("queue").EndDetail("admitted")
	tr.StartSpan("acquire").EndDetailN("worker=", 3)
	for _, name := range []string{"seal", "wal", "rebase", "execute"} {
		tr.StartSpan(name).End()
	}
	for i := range 4 {
		tr.AddCycleSpanN("smc:KOM_SMC_ENTER", uint64(1000*i), "err=", 0)
	}
	w.WriteHeader(http.StatusOK)
}

// unkeptEdge returns an edge whose one-trace flight recorder already
// holds a trace slower than any request can be, so it retains nothing
// more; finish, if non-nil, is its finish hook.
func unkeptEdge(finish func(TraceData) TraceData) *Edge {
	e := NewEdge(1, finish)
	e.Flight().Record(TraceData{TraceID: "slowest", DurNS: math.MaxInt64})
	e.Traced("/v1/sign", signLike)
	return e
}

// TestUnretainedTraceIsNotBuilt: a request the flight recorder will not
// retain runs no finish hook and builds no TraceData, and still counts as
// seen and in the latency histogram.
func TestUnretainedTraceIsNotBuilt(t *testing.T) {
	hooked := 0
	e := unkeptEdge(func(td TraceData) TraceData { hooked++; return td })
	req := httptest.NewRequest(http.MethodPost, "/v1/sign", nil)
	const n = 3
	for range n {
		e.ServeHTTP(nopWriter{http.Header{}}, req)
	}
	if hooked != 0 {
		t.Errorf("finish hook ran %d times for unretained traces", hooked)
	}
	if got := e.Flight().Slowest(); len(got) != 1 || got[0].TraceID != "slowest" {
		t.Errorf("flight recorder holds %+v", got)
	}
	var sb strings.Builder
	e.WriteMetrics(NewPromWriter(&sb), "komodo_test_duration_seconds", "Test latency.")
	for _, want := range []string{
		`komodo_test_duration_seconds_count{endpoint="/v1/sign",outcome="ok"} 3`,
		"komodo_flight_traces_seen_total 4", // the three requests and the seeded trace
		"komodo_flight_traces_retained 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, sb.String())
		}
	}
}

// unkeptRequestAllocs is what an unretained traced request allocates,
// none of it for the trace's spans: the request copy that r.WithContext
// makes, the context value carrying the trace, the outbound Traceparent
// string and its header value slice.
const (
	unkeptRequestAllocs = 4
	unkeptRequestBytes  = 448 // 320 + 48 + 64 + 16 on Go 1.24 amd64
)

// TestUnretainedTraceAllocations pins those allocations. Building the
// trace would add its two hex ids and the span slice, and formatting the
// details more; either would show here.
func TestUnretainedTraceAllocations(t *testing.T) {
	if !allocFree {
		t.Skip("allocation counts are not asserted under -race")
	}
	e := unkeptEdge(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/sign", nil)
	w := nopWriter{http.Header{}}
	if n := testing.AllocsPerRun(1000, func() { e.ServeHTTP(w, req) }); n != unkeptRequestAllocs {
		t.Errorf("unretained traced request: %v allocations, want %d", n, unkeptRequestAllocs)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			e.ServeHTTP(w, req)
		}
	})
	if got := res.AllocedBytesPerOp(); got > unkeptRequestBytes {
		t.Errorf("unretained traced request: %d bytes, want at most %d", got, unkeptRequestBytes)
	}
}

// BenchmarkTracedRequest measures the tracing pipeline's cost per
// request around a handler that records a durable sign's span shape:
// unkept, the flight recorder retains nothing and the trace is never
// built; kept, every trace is built and retained. Run it with -benchmem.
func BenchmarkTracedRequest(b *testing.B) {
	req := httptest.NewRequest(http.MethodPost, "/v1/sign", nil)
	w := nopWriter{http.Header{}}
	b.Run("unkept", func(b *testing.B) {
		e := unkeptEdge(nil)
		b.ReportAllocs()
		for range b.N {
			e.ServeHTTP(w, req)
		}
	})
	b.Run("kept", func(b *testing.B) {
		var e *Edge
		b.ReportAllocs()
		for i := range b.N {
			if i%DefaultFlightRecorderSize == 0 {
				// A fresh recorder has room, so it keeps the next
				// DefaultFlightRecorderSize traces whatever they take.
				b.StopTimer()
				e = NewEdge(0, nil)
				e.Traced("/v1/sign", signLike)
				b.StartTimer()
			}
			e.ServeHTTP(w, req)
		}
	})
}

// TestTraceReuseConcurrent serves many requests at once through one edge,
// each recording spans from several goroutines that name the request.
// Trace objects are reused across requests, so a stale span, a span
// landing on the wrong request, or a handler seeing another's trace would
// show as a retained trace with a foreign or missing span.
func TestTraceReuseConcurrent(t *testing.T) {
	const (
		clients  = 8
		requests = 50
		writers  = 4
		each     = 10 // spans per writer, past InlineSpans in all
	)
	e := NewEdge(16, func(td TraceData) TraceData {
		if len(td.Spans) != writers*each {
			t.Errorf("trace %s: %d spans, want %d", td.TraceID, len(td.Spans), writers*each)
		}
		for _, sp := range td.Spans {
			if sp.Detail != "trace="+td.TraceID {
				t.Errorf("trace %s holds a span of %s", td.TraceID, sp.Detail)
			}
		}
		return td
	})
	e.Traced("/v1/c", func(w http.ResponseWriter, r *http.Request) {
		tr := FromContext(r.Context())
		if got := len(tr.Data().Spans); got != 0 {
			t.Errorf("handler starts with %d spans", got)
		}
		id := tr.ID().String()
		if !strings.Contains(w.Header().Get("Traceparent"), id) {
			t.Errorf("traceparent %q does not carry trace %s", w.Header().Get("Traceparent"), id)
		}
		var wg sync.WaitGroup
		for range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range each {
					if j%2 == 0 {
						tr.StartSpan("s").EndDetail("trace=" + id)
					} else {
						tr.AddCycleSpan("c", uint64(j), "trace="+id)
					}
				}
			}()
		}
		wg.Wait()
	})
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range requests {
				e.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/c", nil))
			}
		}()
	}
	wg.Wait()
	if seen := e.Flight().Seen(); seen != clients*requests {
		t.Errorf("flight recorder saw %d traces, want %d", seen, clients*requests)
	}
	if n := e.lat.Get("/v1/c", "ok").Count(); n != clients*requests {
		t.Errorf("latency count %d, want %d", n, clients*requests)
	}
	if e.Flight().Len() != 16 {
		t.Errorf("flight recorder retains %d traces, want 16", e.Flight().Len())
	}
}
