package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// traceShape renders a trace's spans as one "name|detail|cycles" line
// each, in timeline order: everything about the trace but its timings.
func traceShape(t *testing.T, srv *Server) string {
	t.Helper()
	traces := srv.Edge().Flight().Slowest()
	if len(traces) != 1 {
		t.Fatalf("flight recorder holds %d traces, want 1", len(traces))
	}
	var b strings.Builder
	for _, sp := range traces[0].Spans {
		fmt.Fprintf(&b, "%s|%s|%d\n", sp.Name, sp.Detail, sp.Cycles)
	}
	return b.String()
}

// serveOne sends one request straight to the server's handler and
// checks its status.
func serveOne(t *testing.T, srv *Server, method, target, body string, want int) {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	if w.Code != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, target, w.Code, want, w.Body)
	}
}

// TestRetainedTraceShape pins what a retained trace records for a
// durable sign, an attest, a queue-full 429 and a batched sign: the
// sequence of span names, details and simulated cycles, timings
// excluded, must match testdata/trace_shape.txt. The simulator is
// deterministic, so the SMC spans' cycles are exact.
func TestRetainedTraceShape(t *testing.T) {
	cases := []struct {
		name  string
		serve func(t *testing.T) *Server
	}{
		{"durable-sign", func(t *testing.T) *Server {
			cs, err := OpenCheckpointStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cs.Close() })
			p := newPool(t, pool.Config{Size: 1, Boot: Blueprint(1), Provision: RestoreProvision(cs)})
			srv := New(Config{Pool: p, Checkpoints: cs})
			serveOne(t, srv, http.MethodPost, "/v1/notary/sign", "a document to notarise", http.StatusOK)
			return srv
		}},
		{"attest", func(t *testing.T) *Server {
			srv := New(Config{Pool: newPool(t, pool.Config{Size: 1, Boot: Blueprint(1)})})
			serveOne(t, srv, http.MethodGet, "/v1/attest?nonce=abc", "", http.StatusOK)
			return srv
		}},
		{"queue-full", func(t *testing.T) *Server {
			srv := New(Config{Pool: newPool(t, pool.Config{Size: 1, Boot: Blueprint(1)}), QueueDepth: 1})
			srv.slots <- struct{}{} // the only service slot is taken
			serveOne(t, srv, http.MethodGet, "/v1/attest?nonce=abc", "", http.StatusTooManyRequests)
			return srv
		}},
		{"batched-sign", func(t *testing.T) *Server {
			srv := New(Config{Pool: newPool(t, pool.Config{Size: 1, Boot: Blueprint(1)}),
				BatchMaxSize: 4, BatchWindow: time.Millisecond})
			t.Cleanup(srv.Close)
			serveOne(t, srv, http.MethodPost, "/v1/notary/sign", "a document to notarise", http.StatusOK)
			return srv
		}},
	}
	var got bytes.Buffer
	for _, c := range cases {
		fmt.Fprintf(&got, "# %s\n%s", c.name, traceShape(t, c.serve(t)))
	}
	want, err := os.ReadFile("testdata/trace_shape.txt")
	if err != nil {
		t.Fatalf("%v; the shapes served now are:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Errorf("retained trace shapes changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestRecordingRidesOnRetainedTrace: in RecordDir mode a retained
// request's replay trace is saved and linked from its trace, while an
// unretained request's recording is dropped with its trace: the finish
// hook that would save it never runs, and nothing is held for it.
func TestRecordingRidesOnRetainedTrace(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Pool: newPool(t, pool.Config{Size: 1, Boot: Blueprint(1)}),
		RecordDir: dir, FlightRecorderSize: 1})
	serveOne(t, srv, http.MethodPost, "/v1/notary/sign", "a document to notarise", http.StatusOK)
	kept := srv.Edge().Flight().Slowest()
	if len(kept) != 1 || kept[0].Replay != filepath.Join(dir, kept[0].TraceID+".krec") {
		t.Fatalf("retained %+v, want one trace linking its recording", kept)
	}
	if _, err := os.Stat(kept[0].Replay); err != nil {
		t.Fatalf("retained recording: %v", err)
	}

	// From here on the recorder holds a trace no request can outlast.
	srv.Edge().Flight().Record(obs.TraceData{TraceID: "slowest", DurNS: math.MaxInt64})
	serveOne(t, srv, http.MethodPost, "/v1/notary/sign", "another document", http.StatusOK)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("%d recordings saved, want only the retained one", len(files))
	}
	if seen := srv.Edge().Flight().Seen(); seen != 3 {
		t.Errorf("flight recorder saw %d traces, want 3", seen)
	}
}
