// Package load is the closed-loop load driver for the enclave serving
// layer. Each client loops request → response → next request, so offered
// load tracks service capacity and the server's queue exercises real
// backpressure. komodo-load is the command-line front end over Run.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config is one load run: the client side of komodo-load's flags.
type Config struct {
	// Targets are the base URLs; client c drives Targets[c%len(Targets)].
	// A target may be a server or a komodo-gateway.
	Targets []string
	Clients int
	// Duration bounds the run unless Requests > 0, which instead gives a
	// total request budget shared by all clients.
	Duration time.Duration
	Requests int
	Endpoint string // attest | notary | mixed
	// Verify checks every quote with kasm.VerifyQuote and every batch
	// receipt with server.VerifyBatchReceipt; the first failure ends the
	// whole run with an error.
	Verify      bool
	Traceparent string // sent on every request when set
	// Shards tags client c's notary requests with shard s<c mod Shards>
	// (0 = unsharded).
	Shards int
	// TenantMix is a weighted set of X-Komodo-Tenant tokens drawn per
	// request: "token:weight,token:weight", token "-" sends none.
	TenantMix string
	// Zipf > 1 draws notary documents Zipf-skewed from a shared corpus of
	// ZipfDocs documents; 0 signs a fresh random document per request.
	Zipf     float64
	ZipfDocs int
	// RespectRetryAfter sleeps a rejection's Retry-After (capped at 2s)
	// instead of the fixed brief backoff.
	RespectRetryAfter bool
}

// Result is one load run's summary. komodo-load -json prints it as a
// one-element array.
type Result struct {
	Label      string  `json:"label"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	OK         int     `json:"ok"`
	Rejected   int     `json:"rejected_429"`
	Unavail    int     `json:"unavailable_503"`
	Errors     int     `json:"errors"`
	Verified   int     `json:"verified"`
	Throughput float64 `json:"requests_per_sec"`
	P50ms      float64 `json:"p50_ms"`
	P95ms      float64 `json:"p95_ms"`
	P99ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	// CounterMin/CounterMax are the lowest and highest notary counters
	// observed across all clients (0/0 when no notary requests ran).
	// Scripts use CounterMax to assert monotonicity across restarts.
	CounterMin uint32 `json:"counter_min,omitempty"`
	CounterMax uint32 `json:"counter_max,omitempty"`
	// CounterDups counts notary responses that repeated a counter value
	// already seen on the same (backend, worker, epoch, restores) stream.
	// Any nonzero value means a counter was lost or duplicated — e.g. a
	// failover or migration spliced two lineages together.
	CounterDups int `json:"counter_dups"`
	// PerBackend is the per-node latency view built from the
	// X-Komodo-Backend attribution header (merged quantiles in the
	// top-level fields come from summing these histograms).
	PerBackend []BackendResult `json:"per_backend,omitempty"`
	// RejectClasses breaks every 429/503 down by the X-Komodo-Reject
	// header: rate_limit/quota/shed are admission control, queue_full is
	// batch-queue saturation, timeout/drain are the 503 classes, and
	// "unclassified" is a rejection without the header.
	RejectClasses map[string]int `json:"reject_classes,omitempty"`
	// RetryAfterMissing counts 429/503 responses that arrived without a
	// Retry-After header (the contract says every rejection carries one).
	RetryAfterMissing int `json:"retry_after_missing"`
	// RetryAfterSlept counts the rejections whose Retry-After the client
	// actually honored (-respect-retry-after), and RetryAfterSleptMs the
	// total wall time spent in those sleeps.
	RetryAfterSlept   int     `json:"retry_after_slept,omitempty"`
	RetryAfterSleptMs float64 `json:"retry_after_slept_ms,omitempty"`
	// CoalescedReceipts counts batch receipts whose leaf was shared with
	// other requests by cross-request dedup (proof's coalesced > 1).
	CoalescedReceipts int `json:"coalesced_receipts,omitempty"`
	// ReceiptsVerified counts batch receipts proven offline with
	// server.VerifyBatchReceipt (Verify on a batched notary workload).
	ReceiptsVerified int `json:"receipts_verified,omitempty"`
	// Crossings is the enclave SMC-enter delta across the run summed over
	// all targets' /v1/stats telemetry, and CrossingsPerOK that divided
	// by OK — the number batching exists to shrink. Both are zero (not
	// measured) when a target never reported every live worker idle.
	Crossings      uint64  `json:"enclave_crossings,omitempty"`
	CrossingsPerOK float64 `json:"crossings_per_ok,omitempty"`
	// PerTier is the per-tier latency/outcome view built from the
	// X-Komodo-Tier response header (populated with a TenantMix).
	PerTier []TierResult `json:"per_tier,omitempty"`
}

// TierResult is one admission tier's slice of a run.
type TierResult struct {
	Tier     string  `json:"tier"`
	OK       int     `json:"ok"`
	Rejected int     `json:"rejected"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// BackendResult is one backend's slice of a fleet run.
type BackendResult struct {
	Backend string  `json:"backend"`
	OK      int     `json:"ok"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
	P99ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// corpus is the deterministic shared document set for skewed load: rank
// i is always the same pseudo-random 64..511-byte document, so every
// client draws hot ranks from the same set and cross-request dedup has
// identical documents to coalesce.
func corpus(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(i) + 7919))
		docs[i] = randomDoc(rng)
	}
	return docs
}

// randomDoc is a uniform 64..511-byte notary document.
func randomDoc(rng *rand.Rand) []byte {
	d := make([]byte, 64+rng.Intn(448))
	rng.Read(d)
	return d
}

// Run drives cfg.Clients closed-loop clients at the targets until the
// duration or request budget runs out, and aggregates what they saw.
// Latency is attributed per backend via the X-Komodo-Backend header
// (falling back to the target URL when absent); the merged quantiles
// come from the union of the per-backend histograms. The first failed
// quote or receipt verification cancels every client and is returned.
func Run(ctx context.Context, cfg Config) (Result, error) {
	switch {
	case len(cfg.Targets) == 0:
		return Result{}, fmt.Errorf("no targets")
	case cfg.Clients < 1:
		return Result{}, fmt.Errorf("clients must be >= 1, got %d", cfg.Clients)
	case cfg.Endpoint != "attest" && cfg.Endpoint != "notary" && cfg.Endpoint != "mixed":
		return Result{}, fmt.Errorf("unknown endpoint %q", cfg.Endpoint)
	case cfg.Zipf != 0 && cfg.Zipf <= 1:
		return Result{}, fmt.Errorf("zipf exponent must be > 1, got %v", cfg.Zipf)
	case cfg.Zipf != 0 && cfg.ZipfDocs < 1:
		return Result{}, fmt.Errorf("zipf docs must be >= 1, got %d", cfg.ZipfDocs)
	}
	var quoteKey [8]uint32
	if cfg.Verify {
		var kr server.QuoteKeyResponse
		if err := getJSON(cfg.Targets[0]+"/v1/quotekey", &kr); err != nil {
			return Result{}, fmt.Errorf("fetching quote key: %w", err)
		}
		k, err := server.DecodeWords(kr.QuoteKey)
		if err != nil {
			return Result{}, err
		}
		quoteKey = k
	}
	mix, err := parseMix(cfg.TenantMix)
	if err != nil {
		return Result{}, err
	}
	// All clients draw from one shared corpus, so the hot ranks collide
	// across clients — exactly the workload cross-request dedup coalesces.
	var docs [][]byte
	if cfg.Zipf > 0 {
		docs = corpus(cfg.ZipfDocs)
	}

	// ctx carries the requests and is cancelled by the first fatal client
	// error; loop additionally ends at the duration (in-flight requests
	// still complete).
	ctx, fatal := context.WithCancelCause(ctx)
	defer fatal(nil)
	loop := ctx
	if cfg.Requests <= 0 {
		var cancel context.CancelFunc
		loop, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	var budget atomic.Int64
	budget.Store(int64(cfg.Requests))

	type tally struct {
		ok, rejected, unavail, errs, verified, receipts int
		coalesced                                       int
		counterMin, counterMax                          uint32
	}
	tallies := make([]tally, cfg.Clients)
	book := newStreamBook()

	// Rejection-class and per-tier ledgers shared by all clients.
	var classMu sync.Mutex
	rejectClasses := map[string]int{}
	retryMissing := 0
	retrySlept := 0
	var retrySleptFor time.Duration
	tierRejected := map[string]int{}

	// Lock-free histograms shared by every client goroutine, one per
	// backend and one per tier, created on first use.
	var histMu sync.Mutex
	hists := map[string]*obs.Histogram{}
	tierHists := map[string]*obs.Histogram{}
	histIn := func(m map[string]*obs.Histogram, key string) *obs.Histogram {
		histMu.Lock()
		defer histMu.Unlock()
		h := m[key]
		if h == nil {
			h = obs.NewHistogram()
			m[key] = h
		}
		return h
	}

	crossBefore, crossOK := readCrossings(cfg.Targets)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			rng := rand.New(rand.NewSource(int64(c) + 1))
			var zs *rand.Zipf
			if docs != nil {
				zs = rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(docs)-1))
			}
			client := &http.Client{Timeout: 60 * time.Second}
			base := cfg.Targets[c%len(cfg.Targets)]
			shard := ""
			if cfg.Shards > 0 {
				shard = fmt.Sprintf("s%d", c%cfg.Shards)
			}
			for seq := 0; loop.Err() == nil; seq++ {
				if cfg.Requests > 0 && budget.Add(-1) < 0 {
					return
				}
				ep := cfg.Endpoint
				if ep == "mixed" {
					if rng.Intn(2) == 0 {
						ep = "attest"
					} else {
						ep = "notary"
					}
				}
				token := ""
				if mix != nil {
					token = mix.pick(rng)
				}
				var doc []byte
				if ep == "notary" {
					if zs != nil {
						doc = docs[zs.Uint64()]
					} else {
						doc = randomDoc(rng)
					}
				}
				reqStart := time.Now()
				out, err := doRequest(ctx, client, base, ep, fmt.Sprintf("nonce-%d-%d", c, seq), cfg.Traceparent, shard, token, doc)
				if err != nil {
					t.errs++
					continue
				}
				if out.servedBy == "" {
					out.servedBy = base
				}
				switch out.status {
				case http.StatusOK:
					t.ok++
					elapsed := time.Since(reqStart)
					histIn(hists, out.servedBy).Observe(elapsed)
					if out.tier != "" {
						histIn(tierHists, out.tier).Observe(elapsed)
					}
					if ep == "notary" {
						var nr server.NotaryResponse
						if json.Unmarshal(out.body, &nr) == nil && nr.Counter > 0 {
							book.record(out.servedBy, &nr)
							if t.counterMin == 0 || nr.Counter < t.counterMin {
								t.counterMin = nr.Counter
							}
							if nr.Counter > t.counterMax {
								t.counterMax = nr.Counter
							}
							if nr.Batch != nil && nr.Batch.Coalesced > 1 {
								t.coalesced++
							}
							if cfg.Verify && nr.Batch != nil {
								if err := server.VerifyBatchReceipt(nr, doc); err != nil {
									fatal(fmt.Errorf("batch receipt verification failed: %v", err))
									return
								}
								t.receipts++
							}
						}
					}
					if cfg.Verify && ep == "attest" {
						if err := verifyAttest(out.body, quoteKey, out.nonce); err != nil {
							fatal(fmt.Errorf("quote verification failed: %v", err))
							return
						}
						t.verified++
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if out.status == http.StatusTooManyRequests {
						t.rejected++
					} else {
						t.unavail++
					}
					class := out.reject
					if class == "" {
						class = "unclassified"
					}
					classMu.Lock()
					rejectClasses[class]++
					if !out.retryAfter {
						retryMissing++
					}
					if out.tier != "" {
						tierRejected[out.tier]++
					}
					classMu.Unlock()
					if cfg.RespectRetryAfter && out.retrySecs > 0 {
						// Honor the server's hint, capped so a pathological
						// Retry-After can't stall the whole run.
						nap := min(time.Duration(out.retrySecs)*time.Second, 2*time.Second)
						pause(loop, nap)
						classMu.Lock()
						retrySlept++
						retrySleptFor += nap
						classMu.Unlock()
					} else if out.status == http.StatusTooManyRequests {
						pause(loop, 500*time.Microsecond) // brief backoff on saturation
					} else {
						pause(loop, time.Millisecond)
					}
				default:
					t.errs++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}

	r := Result{Clients: cfg.Clients, Seconds: elapsed.Seconds()}
	for i := range tallies {
		t := &tallies[i]
		r.OK += t.ok
		r.Rejected += t.rejected
		r.Unavail += t.unavail
		r.Errors += t.errs
		r.Verified += t.verified
		r.ReceiptsVerified += t.receipts
		r.CoalescedReceipts += t.coalesced
		if t.counterMax > 0 {
			if r.CounterMin == 0 || t.counterMin < r.CounterMin {
				r.CounterMin = t.counterMin
			}
			r.CounterMax = max(r.CounterMax, t.counterMax)
		}
	}
	if r.OK == 0 {
		return r, fmt.Errorf("no successful requests (429s: %d, 503s: %d, errors: %d)",
			r.Rejected, r.Unavail, r.Errors)
	}
	r.Throughput = float64(r.OK) / elapsed.Seconds()
	r.CounterDups = book.dups

	// Per-backend quantiles, plus a merged view over the union of all
	// samples (HistSnapshot.Merge, not an average of quantiles).
	var merged obs.HistSnapshot
	for _, name := range sortedKeys(hists) {
		snap := hists[name].Snapshot()
		merged.Merge(snap)
		if len(hists) > 1 {
			r.PerBackend = append(r.PerBackend, BackendResult{
				Backend: name,
				OK:      int(snap.Count),
				P50ms:   ms(snap.Quantile(0.50)),
				P95ms:   ms(snap.Quantile(0.95)),
				P99ms:   ms(snap.Quantile(0.99)),
				MaxMs:   ms(time.Duration(snap.MaxNS)),
			})
		}
	}
	r.P50ms, r.P95ms, r.P99ms = ms(merged.Quantile(0.50)), ms(merged.Quantile(0.95)), ms(merged.Quantile(0.99))
	r.MaxMs = ms(time.Duration(merged.MaxNS))

	if len(rejectClasses) > 0 {
		r.RejectClasses = rejectClasses
	}
	r.RetryAfterMissing = retryMissing
	r.RetryAfterSlept = retrySlept
	r.RetryAfterSleptMs = float64(retrySleptFor.Microseconds()) / 1000
	tiers := sortedKeys(tierHists)
	for tier := range tierRejected {
		if tierHists[tier] == nil {
			tiers = append(tiers, tier)
		}
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		tr := TierResult{Tier: tier, Rejected: tierRejected[tier]}
		if h := tierHists[tier]; h != nil {
			snap := h.Snapshot()
			tr.OK = int(snap.Count)
			tr.P50ms, tr.P95ms, tr.P99ms = ms(snap.Quantile(0.50)), ms(snap.Quantile(0.95)), ms(snap.Quantile(0.99))
		}
		r.PerTier = append(r.PerTier, tr)
	}

	// Crossings are a before/after delta over the targets' telemetry, so
	// they include batch amortisation: with K-sized batches the figure
	// approaches 1/K crossings per signed request.
	if crossOK {
		if crossAfter, ok := readCrossings(cfg.Targets); ok && crossAfter >= crossBefore {
			r.Crossings = crossAfter - crossBefore
			r.CrossingsPerOK = float64(r.Crossings) / float64(r.OK)
		}
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func sortedKeys(m map[string]*obs.Histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pause sleeps for d or until ctx is done.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// reqOut is one request's observed outcome: status and body, plus the
// response-header signals the tallies classify on (serving backend, tier,
// rejection class, Retry-After presence) and the attest nonce sent.
type reqOut struct {
	status     int
	body       []byte
	servedBy   string
	tier       string
	reject     string
	retryAfter bool
	retrySecs  int
	nonce      string
}

// doRequest issues one request: an attest with the given nonce, or a
// notary sign of doc. servedBy is the backend that served it (the
// gateway's X-Komodo-Backend attribution header, "" when talking to a
// backend directly).
func doRequest(ctx context.Context, client *http.Client, base, ep, nonce, traceparent, shard, token string, doc []byte) (reqOut, error) {
	var out reqOut
	var req *http.Request
	var err error
	switch ep {
	case "attest":
		out.nonce = nonce
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/attest?nonce="+nonce, nil)
	default:
		url := base + "/v1/notary/sign"
		if shard != "" {
			url += "?shard=" + shard
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	}
	if err != nil {
		return out, err
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	if token != "" {
		req.Header.Set(server.TenantHeader, token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	out.body, err = io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	out.status = resp.StatusCode
	out.servedBy = resp.Header.Get("X-Komodo-Backend")
	out.tier = resp.Header.Get(server.TierHeader)
	out.reject = resp.Header.Get(server.RejectHeader)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		out.retryAfter = true
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			out.retrySecs = secs
		}
	}
	return out, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
