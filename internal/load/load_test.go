package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/kapi"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func startStack(t *testing.T, workers int) *Stack {
	t.Helper()
	st, err := Start(pool.Config{Size: workers, Boot: server.Blueprint(42)},
		server.Config{QueueDepth: 64, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("stack close: %v", err)
		}
	})
	return st
}

// TestUnbatchedCrossingsExact pins the crossing count: an unbatched
// notary sign is exactly one enclave entry, so on a multi-worker pool the
// delta must equal the signs served — a read taken while a worker is
// still checked out after its reply would come up short.
func TestUnbatchedCrossingsExact(t *testing.T) {
	st := startStack(t, 4)
	r, err := Run(context.Background(), Config{
		Targets: []string{st.URL}, Clients: 8, Requests: 64, Endpoint: "notary",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 64 || r.Crossings != uint64(r.OK) || r.CrossingsPerOK != 1 {
		t.Fatalf("ok=%d crossings=%d (%.3f/ok), want 64 and exactly one per sign", r.OK, r.Crossings, r.CrossingsPerOK)
	}
	if r.CounterDups != 0 {
		t.Fatalf("%d duplicated counters", r.CounterDups)
	}
}

// TestGatewayCrossingsExact reads the same figure through a gateway,
// summed over its backend_stats.
func TestGatewayCrossingsExact(t *testing.T) {
	a, b := startStack(t, 2), startStack(t, 2)
	g, err := gateway.New(gateway.Config{Backends: []gateway.BackendSpec{
		{Name: "a", URL: a.URL}, {Name: "b", URL: b.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gts := httptest.NewServer(g)
	defer gts.Close()
	r, err := Run(context.Background(), Config{
		Targets: []string{gts.URL}, Clients: 4, Requests: 40, Endpoint: "notary", Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 40 || r.Crossings != 40 {
		t.Fatalf("ok=%d crossings=%d through the gateway, want 40/40", r.OK, r.Crossings)
	}
	if len(r.PerBackend) != 2 {
		t.Fatalf("per-backend view has %d entries, want 2", len(r.PerBackend))
	}
}

// statsServer serves /v1/stats bodies from next, one per call.
func statsServer(t *testing.T, next func(call int) any) string {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body := next(calls)
		calls++
		mu.Unlock()
		json.NewEncoder(w).Encode(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func serverStats(sampled, live int, enters uint64) *server.StatsResponse {
	st := &server.StatsResponse{Sampled: sampled}
	st.Pool.Live = live
	st.Telemetry.SMC = []telemetry.CallStats{{Call: kapi.SMCEnter, Name: "KOM_SMC_ENTER", Count: enters}}
	return st
}

// TestReadCrossingsWaitsForIdleWorkers: a sample missing a checked-out
// worker is never summed. The reader polls until every live worker is
// sampled, and reports "not measured" rather than a partial sum when
// that never happens.
func TestReadCrossingsWaitsForIdleWorkers(t *testing.T) {
	settles := statsServer(t, func(call int) any {
		if call < 3 {
			return serverStats(3, 4, 30) // one worker busy: its 10 entries missing
		}
		return serverStats(4, 4, 40)
	})
	if n, ok := readCrossings([]string{settles}); !ok || n != 40 {
		t.Fatalf("readCrossings = %d, %v; want 40 once all workers are sampled", n, ok)
	}

	gw := statsServer(t, func(call int) any {
		var fs gateway.FleetStats
		fs.BackendStats = map[string]*server.StatsResponse{"a": serverStats(2, 2, 7), "b": serverStats(2, 2, 5)}
		if call == 0 {
			fs.BackendStats["b"] = serverStats(1, 2, 2)
		}
		return fs
	})
	if n, ok := readCrossings([]string{gw}); !ok || n != 12 {
		t.Fatalf("gateway readCrossings = %d, %v; want 12 summed over backend_stats", n, ok)
	}

	busy := statsServer(t, func(int) any { return serverStats(1, 2, 5) })
	if n, ok := readCrossings([]string{busy}); ok {
		t.Fatalf("readCrossings = %d on a never-idle pool; want not measured", n)
	}
}

// TestRunStopsOnTamperedQuote: one failed quote verification ends the
// whole run with that error, long before its duration.
func TestRunStopsOnTamperedQuote(t *testing.T) {
	st := startStack(t, 1)
	tamper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/attest" {
			st.Server.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, r)
		var ar server.AttestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		q, err := server.DecodeWords(ar.Quote)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		q[3] ^= 1
		ar.Quote = server.EncodeWords(q)
		json.NewEncoder(w).Encode(ar)
	}))
	defer tamper.Close()

	start := time.Now()
	_, err := Run(context.Background(), Config{
		Targets: []string{tamper.URL}, Clients: 4, Duration: time.Minute, Endpoint: "attest", Verify: true,
	})
	if err == nil || !strings.Contains(err.Error(), "quote verification failed") {
		t.Fatalf("Run = %v, want a quote verification failure", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Run took %v after the first failed quote", d)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Clients: 1, Requests: 1, Endpoint: "notary"},
		{Targets: []string{"http://127.0.0.1:1"}, Clients: 0, Requests: 1, Endpoint: "notary"},
		{Targets: []string{"http://127.0.0.1:1"}, Clients: 1, Requests: 1, Endpoint: "bogus"},
		{Targets: []string{"http://127.0.0.1:1"}, Clients: 1, Requests: 1, Endpoint: "notary", Zipf: 0.5, ZipfDocs: 8},
		{Targets: []string{"http://127.0.0.1:1"}, Clients: 1, Requests: 1, Endpoint: "notary", Zipf: 1.2},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("Run(%+v) accepted a bad config", cfg)
		}
	}
}

func TestStreamBook(t *testing.T) {
	signed := func(worker int, counter uint32) *server.NotaryResponse {
		return &server.NotaryResponse{Worker: worker, Epoch: 1, Counter: counter}
	}
	batched := func(counter uint32, root, leaf string, index, coalesced int) *server.NotaryResponse {
		nr := signed(0, counter)
		nr.Batch = &server.BatchProof{Root: root, Leaf: leaf, LeafIndex: index, Coalesced: coalesced}
		return nr
	}
	for _, tc := range []struct {
		name string
		seq  []*server.NotaryResponse
		dups int
	}{
		{"distinct unbatched counters", []*server.NotaryResponse{signed(0, 1), signed(0, 2), signed(1, 1)}, 0},
		{"repeated unbatched counter", []*server.NotaryResponse{signed(0, 1), signed(0, 2), signed(0, 1)}, 1},
		{"one batch, distinct leaves", []*server.NotaryResponse{batched(5, "r", "l0", 0, 0), batched(5, "r", "l1", 1, 0)}, 0},
		{"second root on one counter", []*server.NotaryResponse{batched(5, "r", "l0", 0, 0), batched(5, "r2", "l1", 1, 0)}, 1},
		{"coalesced shared leaf", []*server.NotaryResponse{batched(5, "r", "l0", 0, 2), batched(5, "r", "l0", 0, 2)}, 0},
		{"shared index, different leaf", []*server.NotaryResponse{batched(5, "r", "l0", 0, 2), batched(5, "r", "l1", 0, 2)}, 1},
		{"shared index, sole owner", []*server.NotaryResponse{batched(5, "r", "l0", 0, 1), batched(5, "r", "l0", 0, 1)}, 1},
	} {
		sb := newStreamBook()
		for _, nr := range tc.seq {
			sb.record("b0", nr)
		}
		if sb.dups != tc.dups {
			t.Errorf("%s: %d dups, want %d", tc.name, sb.dups, tc.dups)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("gold:3, -:1,free")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(m.tokens, m.cumsum, m.total) != "[gold - free] [3 4 5] 5" {
		t.Fatalf("parsed %v %v %d", m.tokens, m.cumsum, m.total)
	}
	got := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		got[m.pick(rng)] = true
	}
	if !got[""] || !got["gold"] || !got["free"] {
		t.Fatalf("picks %v: want gold, free and no header for '-'", got)
	}
	if m, err := parseMix(""); m != nil || err != nil {
		t.Fatalf("empty mix = %v, %v; want nil, nil", m, err)
	}
	for _, bad := range []string{"gold:0", "gold:-1", "gold:x", " , "} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}
