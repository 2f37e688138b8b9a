package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/tenant"
)

func postDoc(t *testing.T, client *http.Client, url string, doc []byte, hdr map[string]string) (*http.Response, NotaryResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/notary/sign", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nr NotaryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, nr
}

// TestBatchDifferential is the satellite duplicate-counter differential
// test: one batch of K concurrent signs advances the enclave counter
// exactly once (all K receipts share one counter with K distinct leaf
// indices), every receipt verifies offline, and a subsequent single batch
// gets the NEXT counter — no duplicates, no gaps, versus the unbatched
// server where K signs advance the counter K times.
func TestBatchDifferential(t *testing.T) {
	const K = 8

	// Batched server: one pool worker so all signs share a counter stream.
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, BatchMaxSize: K, BatchWindow: 50 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	docs := make([][]byte, K)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("batch doc %02d", i))
	}
	var wg sync.WaitGroup
	responses := make([]NotaryResponse, K)
	codes := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, nr := postDoc(t, http.DefaultClient, ts.URL, docs[i], nil)
			codes[i], responses[i] = resp.StatusCode, nr
		}(i)
	}
	wg.Wait()

	indices := map[int]bool{}
	for i := 0; i < K; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("sign %d: status %d", i, codes[i])
		}
		nr := responses[i]
		if nr.Counter != 1 {
			t.Fatalf("sign %d: counter %d, want 1 (one batch = one tick)", i, nr.Counter)
		}
		if nr.Batch == nil || nr.Batch.BatchSize != K {
			t.Fatalf("sign %d: batch proof missing or wrong size: %+v", i, nr.Batch)
		}
		if indices[nr.Batch.LeafIndex] {
			t.Fatalf("leaf index %d issued twice", nr.Batch.LeafIndex)
		}
		indices[nr.Batch.LeafIndex] = true
		// Full offline verification, leaf recomputed from the document.
		if err := VerifyBatchReceipt(nr, docs[i]); err != nil {
			t.Fatalf("sign %d: receipt verification: %v", i, err)
		}
		// The receipt must NOT verify against a different document.
		if err := VerifyBatchReceipt(nr, []byte("some other doc")); err == nil {
			t.Fatalf("sign %d: receipt verified for a foreign document", i)
		}
	}

	// Next sign: counter 2 — strictly monotonic across batches.
	resp, nr := postDoc(t, http.DefaultClient, ts.URL, []byte("late doc"), nil)
	if resp.StatusCode != http.StatusOK || nr.Counter != 2 {
		t.Fatalf("post-batch sign: status %d counter %d, want 200/2", resp.StatusCode, nr.Counter)
	}

	// Differential leg: the unbatched server spends K counter ticks (and
	// K enclave crossings) on the same K documents.
	p2 := newPool(t, pool.Config{Size: 1})
	srv2 := New(Config{Pool: p2})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	maxCounter := uint32(0)
	for i := 0; i < K; i++ {
		resp, nr := postDoc(t, http.DefaultClient, ts2.URL, docs[i], nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unbatched sign %d: status %d", i, resp.StatusCode)
		}
		if nr.Batch != nil {
			t.Fatalf("unbatched response carries a batch proof")
		}
		if nr.Counter != maxCounter+1 {
			t.Fatalf("unbatched counter %d after %d", nr.Counter, maxCounter)
		}
		maxCounter = nr.Counter
	}
	if maxCounter != K {
		t.Fatalf("unbatched server used %d ticks for %d signs", maxCounter, K)
	}

	// And the batch stats agree: one full batch + one window batch,
	// K+1 signed, K-1 crossings saved.
	st := srv.Stats()
	if st.Batch == nil {
		t.Fatal("batched server reports no batch stats")
	}
	if st.Batch.BatchesFull != 1 || st.Batch.BatchesWindow != 1 ||
		st.Batch.Signed != K+1 || st.Batch.CrossingsSaved != K-1 {
		t.Fatalf("batch stats: %+v", st.Batch)
	}
}

// TestBatchNonceHeader: a pinned X-Komodo-Nonce lands in the leaf and the
// receipt still verifies; a malformed one is a 400.
func TestBatchNonceHeader(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, BatchMaxSize: 4, BatchWindow: 5 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc := []byte("pinned-nonce doc")
	nonce := "000102030405060708090a0b0c0d0e0f"
	resp, nr := postDoc(t, http.DefaultClient, ts.URL, doc, map[string]string{NonceHeader: nonce})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if nr.Batch.Nonce != nonce {
		t.Fatalf("nonce not echoed: %q", nr.Batch.Nonce)
	}
	if err := VerifyBatchReceipt(nr, doc); err != nil {
		t.Fatal(err)
	}
	badResp, _ := postDoc(t, http.DefaultClient, ts.URL, doc, map[string]string{NonceHeader: "zz"})
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed nonce: status %d, want 400", badResp.StatusCode)
	}
}

// TestResponseClassesAddUp drives a batched server with admission
// through a mix of served signs and attests, admission rejections and a
// malformed nonce, and checks that /metrics accounts for every counted
// request in exactly one response class.
func TestResponseClassesAddUp(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.TierSpec{
		{Name: "gold"},
		{Name: "free", Rate: 0.0001, Burst: 1},
	}, map[string]string{"tok-g": "gold", "tok-f": "free"}, "free")
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, Admission: reg, BatchMaxSize: 4, BatchWindow: 2 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sign := func(token, nonce string, want int) {
		t.Helper()
		hdr := map[string]string{TenantHeader: token}
		if nonce != "" {
			hdr[NonceHeader] = nonce
		}
		if resp, _ := postDoc(t, http.DefaultClient, ts.URL, []byte("doc"), hdr); resp.StatusCode != want {
			t.Fatalf("sign (%s, nonce %q): status %d, want %d", token, nonce, resp.StatusCode, want)
		}
	}
	sign("tok-g", "", http.StatusOK)
	sign("tok-f", "", http.StatusOK)
	sign("tok-f", "", http.StatusTooManyRequests)
	sign("tok-f", "", http.StatusTooManyRequests)
	sign("tok-g", "zz", http.StatusBadRequest)
	if code := getJSON(t, ts.URL+"/v1/attest?nonce=n", nil); code != http.StatusOK {
		t.Fatalf("attest: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams := parsePromText(t, string(body))
	requests := fams["komodo_server_requests_total"].samples["komodo_server_requests_total"]
	var classes float64
	for _, v := range fams["komodo_server_responses_total"].samples {
		classes += v
	}
	if requests != 5 || classes != requests {
		t.Fatalf("requests_total %v, response classes sum to %v; want 5 and 5", requests, classes)
	}
	if v := fams["komodo_server_responses_total"].samples[`komodo_server_responses_total{result="tenant_rejected_429"}`]; v != 2 {
		t.Fatalf("tenant_rejected_429 class = %v, want 2", v)
	}
}

// TestTenantAdmissionOverHTTP: tenant tokens map to tiers; an exhausted
// rate bucket yields 429 + Retry-After + X-Komodo-Reject: rate_limit, and
// the tier lands in X-Komodo-Tier and the leaf's tenant label.
func TestTenantAdmissionOverHTTP(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.TierSpec{
		{Name: "gold"},
		{Name: "free", Rate: 0.001, Burst: 2},
	}, map[string]string{"tok-g": "gold", "tok-f": "free"}, "free")
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, Admission: reg, BatchMaxSize: 4, BatchWindow: 5 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc := []byte("tenant doc")
	// Two free signs pass (burst 2), binding the token as tenant label.
	for i := 0; i < 2; i++ {
		resp, nr := postDoc(t, http.DefaultClient, ts.URL, doc, map[string]string{TenantHeader: "tok-f"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("free sign %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(TierHeader); got != "free" {
			t.Fatalf("tier header %q", got)
		}
		if nr.Batch.Tenant != "tok-f" {
			t.Fatalf("leaf tenant %q", nr.Batch.Tenant)
		}
		if err := VerifyBatchReceipt(nr, doc); err != nil {
			t.Fatal(err)
		}
	}
	// Third free sign: 429 rate_limit with Retry-After.
	resp, _ := postDoc(t, http.DefaultClient, ts.URL, doc, map[string]string{TenantHeader: "tok-f"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited sign: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(RejectHeader); got != tenant.ReasonRateLimit {
		t.Fatalf("reject class %q, want %q", got, tenant.ReasonRateLimit)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Gold still sails through.
	if resp, _ := postDoc(t, http.DefaultClient, ts.URL, doc, map[string]string{TenantHeader: "tok-g"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("gold sign: status %d", resp.StatusCode)
	}
	// Stats carry the per-tier ledger.
	st := srv.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("tenants: %+v", st.Tenants)
	}
	var free, gold tenant.TierStats
	for _, ts := range st.Tenants {
		switch ts.Tier {
		case "free":
			free = ts
		case "gold":
			gold = ts
		}
	}
	if free.Admitted != 2 || free.RejectedRate != 1 || gold.Admitted != 1 {
		t.Fatalf("tier stats: free=%+v gold=%+v", free, gold)
	}
	if st.Server.TenantRejected != 1 {
		t.Fatalf("tenant_rejected_429 = %d", st.Server.TenantRejected)
	}
}

// postRaw posts a sign and returns the status plus the raw response body
// bytes — for differential tests that pin byte-identical responses.
func postRaw(t *testing.T, url string, doc []byte, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/notary/sign", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDedupReceiptsProperty is the satellite dedup property test: N
// concurrent signs of the SAME document — some under the same tenant
// (they coalesce onto one leaf), some under distinct tenants (tenant is
// bound into the leaf, so they must not) — each yield a receipt that
// verifies offline, and tampering a coalesced receipt's nonce or index
// fails closed.
func TestDedupReceiptsProperty(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, BatchMaxSize: 64, BatchWindow: 60 * time.Millisecond, BatchDedup: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc := []byte("the one hot document")
	const anon = 4
	headers := make([]map[string]string, 0, anon+2)
	for i := 0; i < anon; i++ {
		headers = append(headers, nil) // tenant "anon": all coalesce
	}
	headers = append(headers,
		map[string]string{TenantHeader: "tenant-a"},
		map[string]string{TenantHeader: "tenant-b"})

	responses := make([]NotaryResponse, len(headers))
	var wg sync.WaitGroup
	for i, hdr := range headers {
		wg.Add(1)
		go func(i int, hdr map[string]string) {
			defer wg.Done()
			resp, nr := postDoc(t, http.DefaultClient, ts.URL, doc, hdr)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("sign %d: status %d", i, resp.StatusCode)
				return
			}
			responses[i] = nr
		}(i, hdr)
		time.Sleep(2 * time.Millisecond) // keep all six inside one window
	}
	wg.Wait()

	for i, nr := range responses {
		if nr.Batch == nil {
			t.Fatalf("sign %d: no batch proof", i)
		}
		if err := VerifyBatchReceipt(nr, doc); err != nil {
			t.Fatalf("sign %d: receipt verification: %v", i, err)
		}
		if nr.Batch.BatchSize != 3 {
			t.Fatalf("sign %d: %d leaves, want 3 (anon shared + 2 tenants)", i, nr.Batch.BatchSize)
		}
	}
	// The anon receipts share one leaf: same index, leaf, nonce, and a
	// coalesced count naming every sharer.
	first := responses[0].Batch
	for i := 1; i < anon; i++ {
		b := responses[i].Batch
		if b.LeafIndex != first.LeafIndex || b.Leaf != first.Leaf || b.Nonce != first.Nonce {
			t.Fatalf("anon receipt %d not coalesced with receipt 0: %+v vs %+v", i, b, first)
		}
		if b.Coalesced != anon {
			t.Fatalf("anon receipt %d coalesced=%d, want %d", i, b.Coalesced, anon)
		}
	}
	// The tenant receipts own their leaves (tenant is inside the hash).
	for i := anon; i < len(responses); i++ {
		b := responses[i].Batch
		if b.LeafIndex == first.LeafIndex {
			t.Fatalf("tenant receipt %d landed on the anon leaf", i)
		}
		if b.Coalesced != 0 {
			t.Fatalf("tenant receipt %d reports coalesced=%d", i, b.Coalesced)
		}
	}
	// Tampering fails closed: a flipped nonce byte, a foreign nonce, a
	// moved index.
	tampered := responses[0]
	badNonce := []byte(tampered.Batch.Nonce)
	if badNonce[0] == 'f' {
		badNonce[0] = '0'
	} else {
		badNonce[0] = 'f'
	}
	tampered.Batch.Nonce = string(badNonce)
	if VerifyBatchReceipt(tampered, doc) == nil {
		t.Fatal("coalesced receipt verified with tampered nonce")
	}
	tampered = responses[0]
	tampered.Batch.Nonce = responses[anon].Batch.Nonce
	if VerifyBatchReceipt(tampered, doc) == nil {
		t.Fatal("coalesced receipt verified with another leaf's nonce")
	}
	tampered = responses[0]
	tampered.Batch.LeafIndex = (tampered.Batch.LeafIndex + 1) % tampered.Batch.BatchSize
	if VerifyBatchReceipt(tampered, doc) == nil {
		t.Fatal("coalesced receipt verified at the wrong index")
	}

	st := srv.Stats()
	if st.Batch == nil || st.Batch.Dedup != anon-1 {
		t.Fatalf("batch stats: %+v", st.Batch)
	}
}

// TestAdaptiveOffDifferential pins the off-switch contract: a server
// with the adaptive/dedup/group-commit knobs present but switched off
// produces byte-identical responses, an identical counter lineage, and
// an identical checkpoint WAL to the plain fixed-K server — including on
// a workload full of duplicate documents that dedup WOULD coalesce.
func TestAdaptiveOffDifferential(t *testing.T) {
	type stack struct {
		dir string
		cs  *CheckpointStore
		p   *pool.Pool
		srv *Server
		ts  *httptest.Server
	}
	boot := func(cfg Config) *stack {
		s := &stack{dir: t.TempDir()}
		var err error
		if s.cs, err = OpenCheckpointStore(s.dir); err != nil {
			t.Fatal(err)
		}
		s.p = newPool(t, pool.Config{Size: 1, Provision: RestoreProvision(s.cs)})
		cfg.Pool = s.p
		cfg.Checkpoints = s.cs
		s.srv = New(cfg)
		s.ts = httptest.NewServer(s.srv)
		return s
	}
	// Legacy shape vs. explicitly-disabled adaptive write path.
	legacy := boot(Config{BatchMaxSize: 4, BatchWindow: 5 * time.Millisecond})
	disabled := boot(Config{BatchMaxSize: 4, BatchWindow: 5 * time.Millisecond,
		BatchMinSize: 0, BatchDedup: false})

	// Serial workload with pinned nonces (deterministic leaves) and a
	// repeated document — the dedup bait.
	docs := [][]byte{
		[]byte("doc A"), []byte("doc A"), []byte("doc B"), []byte("doc A"), []byte("doc C"),
	}
	for i, doc := range docs {
		hdr := map[string]string{NonceHeader: fmt.Sprintf("%032x", i+1)}
		codeL, bodyL := postRaw(t, legacy.ts.URL, doc, hdr)
		codeD, bodyD := postRaw(t, disabled.ts.URL, doc, hdr)
		if codeL != http.StatusOK || codeD != http.StatusOK {
			t.Fatalf("sign %d: status %d vs %d", i, codeL, codeD)
		}
		if !bytes.Equal(bodyL, bodyD) {
			t.Fatalf("sign %d: response bodies differ:\n legacy: %s\n disabled: %s", i, bodyL, bodyD)
		}
		var nr NotaryResponse
		if err := json.Unmarshal(bodyD, &nr); err != nil {
			t.Fatal(err)
		}
		if nr.Counter != uint32(i+1) {
			t.Fatalf("sign %d: counter %d, want %d", i, nr.Counter, i+1)
		}
		if nr.Batch.Coalesced != 0 {
			t.Fatalf("sign %d: coalesced leaked into a dedup-off response", i)
		}
		if err := VerifyBatchReceipt(nr, doc); err != nil {
			t.Fatal(err)
		}
	}
	// Same counter lineage ⇒ same durable record stream: the WALs match
	// byte for byte.
	for _, s := range []*stack{legacy, disabled} {
		s.ts.Close()
		if err := s.cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	walL, err := os.ReadFile(filepath.Join(legacy.dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	walD, err := os.ReadFile(filepath.Join(disabled.dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walL, walD) {
		t.Fatal("checkpoint WALs differ between legacy and disabled-adaptive servers")
	}
}

// TestBatchDrainReceipts: draining closes the aggregator batch with
// receipts intact, and post-drain signs are 503 drain.
func TestBatchDrain(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, BatchMaxSize: 64, BatchWindow: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, nr := postDoc(t, http.DefaultClient, ts.URL, []byte("pre-drain"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain sign: %d", resp.StatusCode)
	}
	if err := VerifyBatchReceipt(nr, []byte("pre-drain")); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	srv.Close()
	resp, _ = postDoc(t, http.DefaultClient, ts.URL, []byte("post-drain"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain sign: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(RejectHeader); got != RejectDrain {
		t.Fatalf("reject class %q, want %q", got, RejectDrain)
	}
}
