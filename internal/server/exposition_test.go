package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/tenant"
)

// Fixture files pin the shape of /metrics: every family with its TYPE
// and HELP, and every label set it carries (histogram le bounds and
// sample values excluded), as shape prints them. They hold the surface of
// the hand-written exposition that the tagged Stats structs replaced, so
// they are not regenerated from the code under test.
const (
	serverFixture  = "testdata/metrics_server.txt"
	gatewayFixture = "testdata/metrics_gateway.txt"
)

// fixtureServer boots one server with every optional plane on: adaptive
// batching with dedup, a durable checkpoint store and tenant admission
// (gold unlimited, free with a burst of 2 and almost no refill). It
// drives a fixed sequential mix through it: an attest, signs under both
// tiers, one rate-limited sign and one sign with a malformed nonce.
func fixtureServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	reg, err := tenant.NewRegistry([]tenant.TierSpec{
		{Name: "gold"},
		{Name: "free", Rate: 0.0001, Burst: 2},
	}, map[string]string{"tok-g": "gold", "tok-f": "free"}, "free")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := server.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{Size: 1, Boot: server.Blueprint(7), Provision: server.RestoreProvision(cs)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Pool:         p,
		Checkpoints:  cs,
		Admission:    reg,
		BatchMaxSize: 8,
		BatchMinSize: 2,
		BatchWindow:  2 * time.Millisecond,
		BatchDedup:   true,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		p.Close(ctx)
		cs.Close()
	})

	send := func(method, path, token, nonce, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set(server.TenantHeader, token)
		}
		if nonce != "" {
			req.Header.Set(server.NonceHeader, nonce)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s (tenant %q): status %d, want %d", method, path, token, resp.StatusCode, want)
		}
	}
	send(http.MethodGet, "/v1/attest?nonce=fixture", "tok-g", "", "", http.StatusOK)
	send(http.MethodPost, "/v1/notary/sign", "tok-g", "", "gold doc", http.StatusOK)
	send(http.MethodPost, "/v1/notary/sign", "tok-f", "", "free doc 1", http.StatusOK)
	send(http.MethodPost, "/v1/notary/sign", "tok-f", "", "free doc 2", http.StatusOK)
	send(http.MethodPost, "/v1/notary/sign", "tok-f", "", "free doc 3", http.StatusTooManyRequests)
	send(http.MethodPost, "/v1/notary/sign", "tok-g", "zz", "bad nonce doc", http.StatusBadRequest)

	// A reply can reach the client before its worker is back in the
	// pool; telemetry is sampled from idle workers only.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Pool.Available != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never returned to the pool")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, ts
}

// fixtureGateway fronts two backends with a gateway (probes off) and
// proxies one sign through it.
func fixtureGateway(t *testing.T) *httptest.Server {
	t.Helper()
	var specs []gateway.BackendSpec
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"status":"ok"}`) })
		mux.HandleFunc("/v1/notary/sign", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"counter":1}`) })
		be := httptest.NewServer(mux)
		t.Cleanup(be.Close)
		specs = append(specs, gateway.BackendSpec{Name: fmt.Sprintf("b%d", i), URL: be.URL})
	}
	g, err := gateway.New(gateway.Config{Backends: specs, DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/notary/sign?shard=s0", "application/octet-stream", strings.NewReader("doc"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sign through gateway: %d", resp.StatusCode)
	}
	return ts
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? \S+$`)
	leLabel    = regexp.MustCompile(`,?le="[^"]*"`)
)

// shape reduces a Prometheus exposition to its sorted, de-duplicated
// family and label-set lines:
//
//	family NAME TYPE HELP
//	series NAME{LABELS}
//
// Histogram samples fold into their family (suffix and le dropped).
func shape(t *testing.T, body string) []string {
	t.Helper()
	set := map[string]bool{}
	types := map[string]string{}
	help := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, text, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = text
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			types[name] = typ
			set["family "+name+" "+typ+" "+help[name]] = true
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("not a sample line: %q", line)
			}
			name, labels := m[1], m[2]
			if _, ok := types[name]; !ok {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if base := strings.TrimSuffix(name, suf); types[base] == "histogram" {
						name = base
					}
				}
			}
			if _, ok := types[name]; !ok {
				t.Fatalf("sample %s has no declared family", m[1])
			}
			labels = strings.Replace(leLabel.ReplaceAllString(labels, ""), "{,", "{", 1)
			if labels == "{}" {
				labels = ""
			}
			set["series "+name+labels] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// checkFixture compares an exposition's shape with a fixture file, as
// sets, allowing exactly the listed additions.
func checkFixture(t *testing.T, path, body string, added ...string) {
	t.Helper()
	got := shape(t, body)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[l] = true
	}
	for _, l := range added {
		want[l] = true
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("%s: unexpected %s", filepath.Base(path), l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("%s: missing %s", filepath.Base(path), l)
	}
}

// TestMetricsMatchFixture pins the /metrics surface of a fully featured
// server and of a two-backend gateway: the same families, types, help
// texts and label sets as the fixtures, plus the tenant-admission
// response class that makes komodo_server_responses_total add up.
func TestMetricsMatchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real enclave board")
	}
	_, ts := fixtureServer(t)
	checkFixture(t, serverFixture, scrape(t, ts.URL),
		`series komodo_server_responses_total{result="tenant_rejected_429"}`)
	checkFixture(t, gatewayFixture, scrape(t, fixtureGateway(t).URL))
}

// expandBraces expands shell-style groups: a_{b,c}_d → a_b_d, a_c_d.
func expandBraces(s string) []string {
	open := strings.Index(s, "{")
	if open < 0 {
		return []string{s}
	}
	end := open + strings.Index(s[open:], "}")
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// TestObservabilityDocListsEveryFamily checks the /metrics name reference
// in docs/OBSERVABILITY.md against the fixtures: every family the server
// and the gateway emit has a row, and every row names an emitted family.
func TestObservabilityDocListsEveryFamily(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(doc), "## /metrics name reference")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no /metrics name reference")
	}
	ref, _, _ = strings.Cut(ref, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(ref, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.Split(line, "|")[1]
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cell, -1) {
			for _, name := range expandBraces(span[1]) {
				documented[name] = true
			}
		}
	}
	emitted := map[string]bool{}
	for _, path := range []string{serverFixture, gatewayFixture} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(l); len(f) > 1 && f[0] == "family" {
				emitted[f[1]] = true
			}
		}
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("family %s is emitted but not in the name reference", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("the name reference lists %s, which no fixture emits", name)
		}
	}
}
