package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// Edge is the HTTP request plane komodo-serve and komodo-gateway share:
// the route mux, the tracing pipeline every traced route runs, the
// per-(endpoint, outcome) latency histograms, the flight recorder behind
// /v1/debug/traces, and the listen/drain lifecycle. It implements
// http.Handler.
type Edge struct {
	mux    *http.ServeMux
	lat    *LatencyVec
	flight *FlightRecorder
	finish func(TraceData) TraceData
}

// NewEdge returns an edge whose flight recorder keeps flightSize traces
// (DefaultFlightRecorderSize if <= 0) and serves them at
// /v1/debug/traces. finish, if non-nil, sees each finished trace before it
// is recorded and returns it, amended or not. It takes and returns the
// trace by value so that the trace need not escape to the heap.
func NewEdge(flightSize int, finish func(TraceData) TraceData) *Edge {
	e := &Edge{
		mux:    http.NewServeMux(),
		lat:    NewLatencyVec(),
		flight: NewFlightRecorder(flightSize),
		finish: finish,
	}
	e.mux.HandleFunc("/v1/debug/traces", e.serveTraces)
	return e
}

func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.mux.ServeHTTP(w, r) }

// Flight returns the edge's flight recorder.
func (e *Edge) Flight() *FlightRecorder { return e.flight }

// HandleFunc registers an untraced route.
func (e *Edge) HandleFunc(path string, h http.HandlerFunc) { e.mux.HandleFunc(path, h) }

// Traced registers h at path behind the tracing pipeline: adopt the
// inbound W3C traceparent (or mint a fresh trace), thread the trace
// through the request context, echo the outbound Traceparent header, and
// on completion observe the wall-clock latency under (path, outcome) and
// offer the finished trace to the flight recorder.
func (e *Edge) Traced(path string, h http.HandlerFunc) {
	e.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		tr := NewTrace(path, r.Header.Get("traceparent"))
		w.Header().Set("Traceparent", tr.Traceparent())
		sw := &statusRecorder{ResponseWriter: w}
		h(sw, r.WithContext(WithTrace(r.Context(), tr)))
		td := tr.Finish(Outcome(sw.status))
		if e.finish != nil {
			td = e.finish(td)
		}
		e.lat.Observe(path, td.Outcome, time.Duration(td.DurNS))
		e.flight.Record(td)
	})
}

// statusRecorder captures the response status for outcome classification.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Outcome maps an HTTP status onto the outcome label of latency series
// and trace records. Status 0 (nothing written yet) reads as "ok".
func Outcome(status int) string {
	switch {
	case status == 0 || status >= 200 && status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "rejected"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	case status == http.StatusBadGateway:
		return "bad_gateway"
	case status >= 400 && status < 500:
		return "bad_request"
	default:
		return "error"
	}
}

// OutcomeOf returns the Outcome of what a traced handler has written to
// w so far ("ok" if w is not the writer Traced passed it).
func OutcomeOf(w http.ResponseWriter) string {
	if sw, ok := w.(*statusRecorder); ok {
		return Outcome(sw.status)
	}
	return "ok"
}

// ErrorBody is the JSON body of every error response.
type ErrorBody struct {
	Error string `json:"error"`
}

// Reply writes body as a JSON response with the given status.
func Reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// ReplyErr writes an ErrorBody response. A non-empty retryAfter becomes
// the Retry-After header unless the handler already set one.
func ReplyErr(w http.ResponseWriter, status int, retryAfter, format string, args ...any) {
	if retryAfter != "" && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	Reply(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// serveTraces serves the flight recorder: the retained slowest
// traces as an indented JSON Dump, slowest first. With ?id=<32-hex trace
// id> it returns just that trace (404 if it was never retained or has
// been evicted). With ?min_ms=<float> only traces at least that slow are
// listed (the dump's "seen" and "retained" fields still describe the whole
// recorder, so the filter is visible, not silent).
func (e *Edge) serveTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		td, ok := e.flight.Find(id)
		if !ok {
			ReplyErr(w, http.StatusNotFound, "", "trace %s not retained", id)
			return
		}
		Reply(w, http.StatusOK, td)
		return
	}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		minMS, err := strconv.ParseFloat(v, 64)
		if err != nil || minMS < 0 {
			ReplyErr(w, http.StatusBadRequest, "", "min_ms must be a non-negative number, got %q", v)
			return
		}
		cut := int64(minMS * 1e6)
		kept := []TraceData{}
		for _, td := range e.flight.Slowest() {
			if td.DurNS >= cut {
				kept = append(kept, td)
			}
		}
		Reply(w, http.StatusOK, Dump{Seen: e.flight.Seen(), Retained: e.flight.Len(), Traces: kept})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	e.flight.WriteJSON(w)
}

// WriteMetrics writes the edge's latency histogram under the family name
// and help the caller gives, then the flight recorder's families.
func (e *Edge) WriteMetrics(p *PromWriter, name, help string) {
	var series []HistSeries
	e.lat.Each(func(endpoint, outcome string, h *Histogram) {
		series = append(series, HistSeries{Labels: L("endpoint", endpoint, "outcome", outcome), Snap: h.Snapshot()})
	})
	p.Histogram(name, help, series...)
	p.Counter("komodo_flight_traces_seen_total",
		"Finished traces offered to the flight recorder.",
		Sample{Value: float64(e.flight.Seen())})
	p.Gauge("komodo_flight_traces_retained",
		"Slow traces currently retained for /v1/debug/traces.",
		Sample{Value: float64(e.flight.Len())})
}

// Serve runs the edge on addr until SIGINT or SIGTERM. It prints the
// bound address and, if addrFile is set, writes it there. SIGQUIT dumps
// the flight recorder to stderr and keeps serving. On SIGINT/SIGTERM it
// calls drain, then shuts the listener down, letting in-flight requests
// finish within drainTimeout.
func (e *Edge) Serve(addr, addrFile string, drain func(), drainTimeout time.Duration) error {
	// Signals are caught before the address is published, so a script may
	// signal as soon as it reads the addr-file. Each kind has its own
	// channel, so a burst of SIGQUITs cannot crowd out a SIGTERM.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Printf("listening on http://%s\n", bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	hs := &http.Server{Handler: e}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var got os.Signal
	for got == nil {
		select {
		case err := <-errc:
			return err
		case <-quit:
			// The "why are requests slow right now" lever that needs no
			// client.
			fmt.Fprintln(os.Stderr, "SIGQUIT: dumping slow-request traces")
			e.flight.WriteJSON(os.Stderr)
		case got = <-stop:
		}
	}
	fmt.Printf("received %v, draining...\n", got)
	drain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}
