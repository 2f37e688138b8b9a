package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestOutcome(t *testing.T) {
	for status, want := range map[int]string{
		0:   "ok",
		200: "ok",
		201: "ok",
		204: "ok",
		429: "rejected",
		503: "unavailable",
		502: "bad_gateway",
		400: "bad_request",
		404: "bad_request",
		413: "bad_request",
		500: "error",
		504: "error",
	} {
		if got := Outcome(status); got != want {
			t.Errorf("Outcome(%d) = %q, want %q", status, got, want)
		}
	}
	if got := OutcomeOf(httptest.NewRecorder()); got != "ok" {
		t.Errorf("OutcomeOf(untraced writer) = %q, want ok", got)
	}
}

// TestTracedRoundTrip drives one traced request carrying an inbound
// traceparent through the edge: the trace id is echoed with a fresh span
// id, the handler sees the trace and its own outcome, the finish hook
// sees (and may amend) the trace before the flight recorder keeps it, and
// the latency lands under (path, outcome).
func TestTracedRoundTrip(t *testing.T) {
	const (
		tid = "0af7651916cd43dd8448eb211c80319c"
		in  = "00-" + tid + "-b7ad6b7169203331-01"
	)
	var hooked []string
	e := NewEdge(4, func(td TraceData) TraceData {
		hooked = append(hooked, td.TraceID)
		td.Replay = "amended"
		return td
	})
	var inHandler string
	e.Traced("/v1/x", func(w http.ResponseWriter, r *http.Request) {
		if FromContext(r.Context()).ID().String() != tid {
			t.Error("handler context does not carry the adopted trace")
		}
		ReplyErr(w, http.StatusTooManyRequests, "1", "busy")
		inHandler = OutcomeOf(w)
	})

	req := httptest.NewRequest(http.MethodGet, "/v1/x", nil)
	req.Header.Set("traceparent", in)
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, req)

	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("status %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error != "busy" {
		t.Fatalf("error body %q (%v)", rec.Body.String(), err)
	}
	out := rec.Header().Get("Traceparent")
	gotTID, gotSID, ok := ParseTraceparent(out)
	if !ok || gotTID.String() != tid || gotSID.String() == "b7ad6b7169203331" {
		t.Fatalf("echoed traceparent %q", out)
	}
	if inHandler != "rejected" {
		t.Errorf("OutcomeOf in handler = %q, want rejected", inHandler)
	}
	if len(hooked) != 1 || hooked[0] != tid {
		t.Fatalf("finish hook saw %q", hooked)
	}
	td, ok := e.Flight().Find(tid)
	if !ok || td.Outcome != "rejected" || td.Endpoint != "/v1/x" || td.Replay != "amended" {
		t.Fatalf("flight recorder holds %+v (found %v)", td, ok)
	}
	if n := e.lat.Get("/v1/x", "rejected").Count(); n != 1 {
		t.Fatalf("latency series (/v1/x, rejected) count %d", n)
	}

	var sb strings.Builder
	e.WriteMetrics(NewPromWriter(&sb), "komodo_test_duration_seconds", "Test latency.")
	for _, want := range []string{
		`komodo_test_duration_seconds_count{endpoint="/v1/x",outcome="rejected"} 1`,
		"komodo_flight_traces_seen_total 1",
		"komodo_flight_traces_retained 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, sb.String())
		}
	}
}

// TestDebugTraces covers /v1/debug/traces: the whole dump, one trace by
// ?id= (hit and miss), the ?min_ms= filter (which keeps seen/retained
// whole) and a malformed min_ms.
func TestDebugTraces(t *testing.T) {
	e := NewEdge(4, nil)
	e.Flight().Record(td("slow", 5_000_000))
	e.Flight().Record(td("fast", 1_000_000))
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		e.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces"+query, nil))
		return rec
	}
	dump := func(query string) Dump {
		t.Helper()
		rec := get(query)
		var d Dump
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &d) != nil {
			t.Fatalf("%s: %d %s", query, rec.Code, rec.Body.String())
		}
		return d
	}
	ids := func(d Dump) string {
		var s []string
		for _, td := range d.Traces {
			s = append(s, td.TraceID)
		}
		return strings.Join(s, ",")
	}

	if d := dump(""); d.Seen != 2 || d.Retained != 2 || ids(d) != "slow,fast" {
		t.Errorf("whole dump: %+v", d)
	}
	rec := get("?id=fast")
	var one TraceData
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &one) != nil || one.TraceID != "fast" {
		t.Errorf("?id=fast: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("?id=gone"); rec.Code != http.StatusNotFound {
		t.Errorf("?id=gone: %d, want 404", rec.Code)
	}
	if d := dump("?min_ms=2"); d.Seen != 2 || d.Retained != 2 || ids(d) != "slow" {
		t.Errorf("?min_ms=2: %+v", d)
	}
	if d := dump("?min_ms=0"); ids(d) != "slow,fast" {
		t.Errorf("?min_ms=0: %+v", d)
	}
	if d := dump("?min_ms=9"); d.Seen != 2 || d.Retained != 2 || len(d.Traces) != 0 || d.Traces == nil {
		t.Errorf("?min_ms=9: %+v", d)
	}
	for _, bad := range []string{"?min_ms=-1", "?min_ms=abc"} {
		if rec := get(bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, rec.Code)
		}
	}
}

// TestServeSignals runs the lifecycle: the bound address lands in the
// addr-file, the edge answers on it, SIGQUIT dumps the flight recorder to
// stderr and keeps serving, and SIGTERM calls drain before Serve returns
// cleanly.
func TestServeSignals(t *testing.T) {
	dir := t.TempDir()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	e := NewEdge(0, nil)
	addrFile := filepath.Join(dir, "addr")
	drained := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- e.Serve("127.0.0.1:0", addrFile, func() { close(drained) }, 5*time.Second) }()

	var addr []byte
	for deadline := time.Now().Add(5 * time.Second); len(addr) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("addr-file never written")
		}
		addr, _ = os.ReadFile(addrFile)
	}
	resp, err := http.Get("http://" + string(addr) + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces: %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if out, _ := os.ReadFile(stderr.Name()); strings.Contains(string(out), `"seen"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGQUIT wrote no flight-recorder dump")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("Serve returned on SIGQUIT: %v", err)
	default:
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	select {
	case <-drained:
	default:
		t.Fatal("drain was not called")
	}
}
