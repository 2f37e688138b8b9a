package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// TestCrossServerTelemetryMerge drives two independent serving stacks —
// separate pools, boards, checkpoint stores and tier registries, with
// batching and admission on and different request mixes so the counters
// diverge — pulls each one's /v1/stats over HTTP (the views JSON-round-trip
// exactly as they do between real processes), and checks that
// StatsResponse.Merge produces the fleet view a gateway reports: server,
// pool, batch, store and tenant counters sum, maxima and last values
// follow their merge tags, means are recomputed, tiers merge by name,
// per-call SMC streams combine, and nothing is lost when one side has
// activity the other does not.
func TestCrossServerTelemetryMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real enclave boards")
	}
	boot := func(tiers ...string) *httptest.Server {
		var specs []tenant.TierSpec
		for _, name := range tiers {
			specs = append(specs, tenant.TierSpec{Name: name})
		}
		reg, err := tenant.NewRegistry(specs, map[string]string{"tok": tiers[1]}, tiers[0])
		if err != nil {
			t.Fatal(err)
		}
		cs, err := OpenCheckpointStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p := newPool(t, pool.Config{Size: 1, Provision: RestoreProvision(cs)})
		srv := New(Config{Pool: p, Checkpoints: cs, Admission: reg,
			BatchMaxSize: 4, BatchWindow: 2 * time.Millisecond})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close(); cs.Close() })
		return ts
	}
	tsA := boot("gold", "free")
	tsB := boot("gold", "silver")

	// Different mixes: A attests 4 times and signs once, B attests once
	// and signs 3 documents (two under its second tier) — so A and B
	// share metric families but diverge in volume, and each has a tier
	// the other lacks.
	for i := 0; i < 4; i++ {
		if code := getJSON(t, tsA.URL+"/v1/attest?nonce=a"+fmt.Sprint(i), nil); code != 200 {
			t.Fatalf("attest A: %d", code)
		}
	}
	if code := getJSON(t, tsB.URL+"/v1/attest?nonce=b", nil); code != 200 {
		t.Fatalf("attest B: %d", code)
	}
	sign := func(url, token, doc string) {
		t.Helper()
		if resp, _ := postDoc(t, http.DefaultClient, url, []byte(doc), map[string]string{TenantHeader: token}); resp.StatusCode != 200 {
			t.Fatalf("sign %s: %d", url, resp.StatusCode)
		}
	}
	sign(tsA.URL, "", "doc-a")
	for i := 0; i < 3; i++ {
		sign(tsB.URL, []string{"", "tok", "tok"}[i], "doc-"+fmt.Sprint(i))
	}

	// Pull both stats over the wire, exactly as a gateway does.
	var stA, stB StatsResponse
	if code := getJSON(t, tsA.URL+"/v1/stats", &stA); code != 200 {
		t.Fatalf("stats A: %d", code)
	}
	if code := getJSON(t, tsB.URL+"/v1/stats", &stB); code != 200 {
		t.Fatalf("stats B: %d", code)
	}
	if stA.Sampled == 0 || stB.Sampled == 0 {
		t.Fatalf("telemetry sampling broken: A=%d B=%d workers", stA.Sampled, stB.Sampled)
	}

	var fleet StatsResponse
	fleet.Merge(stA)
	fleet.Merge(stB)

	a, b, f := stA.Server, stB.Server, fleet.Server
	if f.Requests != a.Requests+b.Requests || f.Served != a.Served+b.Served ||
		f.TenantRejected != a.TenantRejected+b.TenantRejected || f.Queue != a.Queue+b.Queue {
		t.Fatalf("server counters not summed: %+v + %+v = %+v", a, b, f)
	}
	if p := fleet.Pool; p.Gets != stA.Pool.Gets+stB.Pool.Gets || p.Boots != stA.Pool.Boots+stB.Pool.Boots ||
		p.Live != 2 {
		t.Fatalf("pool merge: %+v", p)
	}
	if stA.Batch == nil || stB.Batch == nil || fleet.Batch == nil {
		t.Fatal("batch stats missing")
	}
	if bt := fleet.Batch; bt.Signed != 4 || bt.Batches != stA.Batch.Batches+stB.Batch.Batches ||
		bt.MaxSize != max(stA.Batch.MaxSize, stB.Batch.MaxSize) || bt.LastSize != stB.Batch.LastSize ||
		bt.MeanSize != float64(bt.SizeSum)/float64(bt.Batches) || bt.KCurrent != 4 {
		t.Fatalf("batch merge: %+v", bt)
	}
	if stA.Store == nil || stB.Store == nil || fleet.Store == nil {
		t.Fatal("store stats missing")
	}
	if st := fleet.Store; st.Appends != stA.Store.Appends+stB.Store.Appends || st.Appends == 0 ||
		st.WALBytes != stA.Store.WALBytes+stB.Store.WALBytes || st.WALBytes == 0 ||
		st.FsyncNS != stA.Store.FsyncNS+stB.Store.FsyncNS || st.FsyncNS == 0 ||
		st.GroupLast != stB.Store.GroupLast || st.MeanGroup() != 1 {
		t.Fatalf("store merge: %+v", st)
	}
	var tiers []string
	for _, ts := range fleet.Tenants {
		tiers = append(tiers, fmt.Sprintf("%s:%d", ts.Tier, ts.Admitted))
	}
	// Attests count against the default tier too: gold is 5 on A and 2
	// on B; free exists on A only, silver on B only.
	if got := strings.Join(tiers, " "); got != "gold:7 free:0 silver:2" {
		t.Fatalf("tenant merge: %s", got)
	}
	if fleet.Sampled != stA.Sampled+stB.Sampled {
		t.Fatalf("sampled %d", fleet.Sampled)
	}

	merged := fleet.Telemetry
	if !reflect.DeepEqual(merged, telemetry.Merge(stA.Telemetry, stB.Telemetry)) {
		t.Fatal("fleet telemetry differs from telemetry.Merge of the two snapshots")
	}

	if merged.Cycles != stA.Telemetry.Cycles+stB.Telemetry.Cycles {
		t.Fatalf("merged cycles %d != %d + %d", merged.Cycles, stA.Telemetry.Cycles, stB.Telemetry.Cycles)
	}
	if merged.Retired != stA.Telemetry.Retired+stB.Telemetry.Retired {
		t.Fatal("merged retired-instruction count is not the sum")
	}

	// Per-call SMC streams: every call present on either side must appear
	// merged with summed counts and cycles.
	sumBy := func(s telemetry.Snapshot) map[string]telemetry.CallStats {
		out := map[string]telemetry.CallStats{}
		for _, cs := range s.SMC {
			out[cs.Name] = cs
		}
		return out
	}
	sa, sb, m := sumBy(stA.Telemetry), sumBy(stB.Telemetry), sumBy(merged)
	if len(sa) == 0 || len(sb) == 0 {
		t.Fatal("one side reported no SMC activity at all")
	}
	for name := range sa {
		want := sa[name].Count + sb[name].Count
		if m[name].Count != want {
			t.Fatalf("SMC %s merged count %d, want %d", name, m[name].Count, want)
		}
		wantCyc := sa[name].Cycles + sb[name].Cycles
		if m[name].Cycles != wantCyc {
			t.Fatalf("SMC %s merged cycles %d, want %d", name, m[name].Cycles, wantCyc)
		}
	}
	for name := range sb {
		if _, ok := m[name]; !ok {
			t.Fatalf("SMC %s present on B lost in merge", name)
		}
	}

	// Lifecycle transitions (enclave init/enter/exit events) sum too.
	for k, v := range stA.Telemetry.Lifecycle {
		if merged.Lifecycle[k] != v+stB.Telemetry.Lifecycle[k] {
			t.Fatalf("lifecycle %s merged %d, want %d", k, merged.Lifecycle[k], v+stB.Telemetry.Lifecycle[k])
		}
	}

	// TLB counters: fleet view is the sum of both boards.
	if merged.TLB.Hits != stA.Telemetry.TLB.Hits+stB.Telemetry.TLB.Hits {
		t.Fatal("merged TLB hits are not the sum")
	}
}

func httpPost(url, body string) (int, error) {
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// TestDrainKeepsStatePlaneUsable pins the server hardening the gateway's
// migration protocol depends on: a draining node refuses request traffic
// (503, retryable) but still answers /v1/checkpoint and /v1/restore —
// draining exists precisely so state can then be pulled off the node.
func TestDrainKeepsStatePlaneUsable(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real enclave boards")
	}
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Sign once so the notary has state worth moving.
	if code, err := httpPost(ts.URL+"/v1/notary/sign", "pre-drain doc"); err != nil || code != 200 {
		t.Fatalf("sign: %d %v", code, err)
	}

	// Drain via the remote orchestration endpoint.
	if code, err := httpPost(ts.URL+"/v1/drain", ""); err != nil || code != 200 {
		t.Fatalf("drain: %d %v", code, err)
	}
	var dr DrainResponse
	if code := getJSON(t, ts.URL+"/v1/drain", &dr); code != 200 || dr.Status != "draining" {
		t.Fatalf("drain state: %d %+v", code, dr)
	}

	// Request plane: refused.
	if code, _ := httpPost(ts.URL+"/v1/notary/sign", "post-drain doc"); code != 503 {
		t.Fatalf("sign while draining: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/attest?nonce=x", nil); code != 503 {
		t.Fatalf("attest while draining: %d, want 503", code)
	}

	// State plane: still open. Pull the checkpoint...
	var ckpt CheckpointResponse
	cr, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Body.Close()
	if cr.StatusCode != 200 {
		t.Fatalf("checkpoint while draining: %d, want 200", cr.StatusCode)
	}
	if err := json.NewDecoder(cr.Body).Decode(&ckpt); err != nil {
		t.Fatal(err)
	}
	if ckpt.BlobWords == 0 {
		t.Fatal("checkpoint while draining sealed nothing")
	}

	// ...and push it back: restore must also work mid-drain.
	resp, err := http.Post(ts.URL+"/v1/restore", "application/json", strings.NewReader(ckpt.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RestoreResponse
	if resp.StatusCode != 200 {
		t.Fatalf("restore while draining: %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Restores != 1 {
		t.Fatalf("restore lineage marker %d, want 1", rr.Restores)
	}

	// Un-drain (?state=off): the node re-enters service — the escape
	// hatch a failed migration uses instead of stranding the source.
	if code, err := httpPost(ts.URL+"/v1/drain?state=off", ""); err != nil || code != 200 {
		t.Fatalf("undrain: %d %v", code, err)
	}
	if code := getJSON(t, ts.URL+"/v1/drain", &dr); code != 200 || dr.Status != "serving" {
		t.Fatalf("undrain state: %d %+v", code, dr)
	}
	if code, err := httpPost(ts.URL+"/v1/notary/sign", "post-undrain doc"); err != nil || code != 200 {
		t.Fatalf("sign after undrain: %d %v", code, err)
	}
}
