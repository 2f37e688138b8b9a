package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
const testTraceID = "0af7651916cd43dd8448eb211c80319c"

// postTraced POSTs a body with a traceparent header and returns the
// response.
func postTraced(t *testing.T, url, traceparent, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTraceEndToEnd pins the tentpole promise: a request sent with a
// known W3C traceparent to /v1/notary/sign is retrievable from
// /v1/debug/traces as a timeline holding the serving-phase wall spans
// (queue, acquire, execute, restore), the durable stages of a
// checkpointed sign (seal, wal, rebase) AND at least one monitor-level
// SMC span carrying a simulated cycle count.
func TestTraceEndToEnd(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	cs, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	srv := New(Config{Pool: p, Checkpoints: cs})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postTraced(t, ts.URL+"/v1/notary/sign", testTraceparent, "the document")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sign: %d", resp.StatusCode)
	}

	// The inbound trace-id is adopted on the response header, with a new
	// span-id for this service.
	tp := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(tp, "00-"+testTraceID+"-") {
		t.Fatalf("response traceparent did not adopt the inbound trace-id: %q", tp)
	}
	if strings.Contains(tp, "b7ad6b7169203331") {
		t.Fatalf("response traceparent reuses the inbound span-id: %q", tp)
	}

	var dump obs.Dump
	if code := getJSON(t, ts.URL+"/v1/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("debug/traces: %d", code)
	}
	if dump.Seen == 0 || dump.Retained != len(dump.Traces) {
		t.Fatalf("dump envelope: %+v", dump)
	}
	var td obs.TraceData
	var found bool
	for _, cand := range dump.Traces {
		if cand.TraceID == testTraceID {
			td, found = cand, true
			break
		}
	}
	if !found {
		t.Fatalf("trace %s not in dump (%d traces)", testTraceID, len(dump.Traces))
	}
	if td.Endpoint != "/v1/notary/sign" || td.Outcome != "ok" || td.ParentID != "b7ad6b7169203331" {
		t.Fatalf("trace metadata: %+v", td)
	}
	if td.DurNS <= 0 {
		t.Fatalf("trace has no duration: %+v", td)
	}

	// The timeline must hold every serving phase plus the monitor spans.
	phases := map[string]bool{}
	var smcSpans, smcCycles int
	for _, sp := range td.Spans {
		phases[sp.Name] = true
		if strings.HasPrefix(sp.Name, "smc:") {
			smcSpans++
			if sp.Cycles > 0 {
				smcCycles++
			}
			if sp.DurNS != 0 {
				t.Fatalf("cycle-domain span has wall duration: %+v", sp)
			}
		}
	}
	for _, want := range []string{"queue", "acquire", "execute", "restore", "seal", "wal", "rebase"} {
		if !phases[want] {
			t.Fatalf("timeline missing %q span: %+v", want, td.Spans)
		}
	}
	if smcSpans == 0 || smcCycles == 0 {
		t.Fatalf("no monitor SMC span with cycles: %+v", td.Spans)
	}
	// Notary keeps enclave state: the release phase must say so.
	for _, sp := range td.Spans {
		if sp.Name == "restore" && sp.Detail != "keep" {
			t.Fatalf("notary release action: %+v", sp)
		}
	}

	// The ?id= filter returns the same trace; unknown ids 404.
	var one obs.TraceData
	if code := getJSON(t, ts.URL+"/v1/debug/traces?id="+testTraceID, &one); code != http.StatusOK {
		t.Fatalf("debug/traces?id=: %d", code)
	}
	if one.TraceID != testTraceID || len(one.Spans) != len(td.Spans) {
		t.Fatalf("filtered trace differs: %+v", one)
	}
	if code := getJSON(t, ts.URL+"/v1/debug/traces?id="+strings.Repeat("f", 32), nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
}

// promFamily is one parsed metric family.
type promFamily struct {
	mtype   string
	samples map[string]float64 // full sample line key (name+labels) → value
}

var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9].*|NaN|[+-]Inf)$`)
var promLabelsRe = regexp.MustCompile(
	`^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$`)

// parsePromText validates text-exposition-format output line by line:
// every family has HELP then TYPE exactly once, every sample belongs to a
// declared family (histogram samples via _bucket/_sum/_count), label
// syntax is well-formed, and values parse as floats.
func parsePromText(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	helped := map[string]bool{}
	// base resolves a sample name to its family, honouring histogram
	// suffixes only for histogram-typed families.
	base := func(name string) *promFamily {
		if f := families[name]; f != nil {
			return f
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok {
				if f := families[cut]; f != nil && f.mtype == "histogram" {
					return f
				}
			}
		}
		return nil
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(help, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			continue
		}
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, mtype, ok := strings.Cut(typ, " ")
			if !ok || (mtype != "counter" && mtype != "gauge" && mtype != "histogram") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if families[name] != nil {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			families[name] = &promFamily{mtype: mtype, samples: map[string]float64{}}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment: %q", ln+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a sample: %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		if labels != "" && !promLabelsRe.MatchString(labels) {
			t.Fatalf("line %d: malformed labels: %q", ln+1, labels)
		}
		f := base(name)
		if f == nil {
			t.Fatalf("line %d: sample %s has no declared family", ln+1, name)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		f.samples[name+labels] = v
	}
	return families
}

// TestMetricsExposition drives a little traffic and then checks /metrics
// is valid Prometheus text exposition carrying every expected family,
// with per-endpoint latency histograms whose +Inf bucket equals the
// series count.
func TestMetricsExposition(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/v1/attest?nonce=abc", nil); code != http.StatusOK {
		t.Fatalf("attest: %d", code)
	}
	resp := postTraced(t, ts.URL+"/v1/notary/sign", "", "doc")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := parsePromText(t, string(body))

	for _, want := range []string{
		"komodo_server_requests_total",
		"komodo_server_responses_total",
		"komodo_server_queue_len",
		"komodo_pool_workers",
		"komodo_pool_boots_total",
		"komodo_pool_restores_total",
		"komodo_pool_restore_words_total",
		"komodo_pool_delta_restores_total",
		"komodo_mem_dirty_pages",
		"komodo_mem_restores_total",
		"komodo_mem_restore_words_total",
		"komodo_block_cache_total",
		"komodo_block_cache_insns_total",
		"komodo_request_duration_seconds",
		"komodo_flight_traces_seen_total",
		"komodo_flight_traces_retained",
		"komodo_telemetry_workers_sampled",
		"go_goroutines",
		"go_memstats_alloc_bytes",
		"process_uptime_seconds",
	} {
		if families[want] == nil {
			t.Errorf("family %s missing", want)
		}
	}

	// Both endpoints served one ok request; their histogram series must
	// exist and be internally consistent (+Inf bucket == count >= 1).
	hist := families["komodo_request_duration_seconds"]
	if hist == nil || hist.mtype != "histogram" {
		t.Fatalf("latency family: %+v", hist)
	}
	for _, ep := range []string{"/v1/attest", "/v1/notary/sign"} {
		labels := fmt.Sprintf(`{endpoint="%s",outcome="ok"`, ep)
		inf := hist.samples[`komodo_request_duration_seconds_bucket`+labels+`,le="+Inf"}`]
		count := hist.samples[`komodo_request_duration_seconds_count`+labels+`}`]
		if count < 1 || inf != count {
			t.Errorf("%s histogram: +Inf=%v count=%v", ep, inf, count)
		}
	}

	if v := families["komodo_server_requests_total"].samples["komodo_server_requests_total"]; v < 2 {
		t.Errorf("requests counter: %v", v)
	}
}

// TestTracingUnderConcurrentLoad hammers the traced endpoints from many
// goroutines (run under -race) and checks that every finished request was
// offered to the flight recorder and that /metrics stays serveable
// mid-load.
func TestTracingUnderConcurrentLoad(t *testing.T) {
	p := newPool(t, pool.Config{Size: 2})
	srv := New(Config{Pool: p, QueueDepth: 128})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers = 8
	const perWorker = 4
	var ok, backpressure atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				var code int
				if (i+j)%2 == 0 {
					code = getJSON(t, fmt.Sprintf("%s/v1/attest?nonce=w%d-%d", ts.URL, i, j), nil)
				} else {
					resp := postTraced(t, ts.URL+"/v1/notary/sign", "", fmt.Sprintf("doc %d-%d", i, j))
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				switch code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					backpressure.Add(1)
				default:
					t.Errorf("request %d-%d: %d", i, j, code)
				}
				// Race the scrape paths against live recording.
				if j == perWorker/2 {
					getJSON(t, ts.URL+"/v1/debug/traces", nil)
					if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no request succeeded under load")
	}
	if got := srv.FlightRecorder().Seen(); got < uint64(workers*perWorker) {
		t.Fatalf("flight recorder saw %d of %d traces", got, workers*perWorker)
	}
	var dump obs.Dump
	if code := getJSON(t, ts.URL+"/v1/debug/traces", &dump); code != http.StatusOK || dump.Retained == 0 {
		t.Fatalf("post-load dump: code=%d %+v", code, dump)
	}
}
