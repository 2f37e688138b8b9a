// komodo-load is a closed-loop load generator for the enclave serving
// layer. Each client loops request → response → next request, so offered
// load tracks service capacity and the queue exercises real backpressure.
// It is a client only: exactly one of -url (one komodo-serve) and -targets
// is required.
//
//	komodo-load -url http://127.0.0.1:8787 -clients 8 -duration 5s -verify
//
// Fleet mode: -targets takes a komodo-gateway URL (or a comma-separated
// backend list to skip the gateway), shards notary traffic with -shards,
// attributes latency per backend via the X-Komodo-Backend response
// header, and cross-checks that no (backend, worker, epoch, restores)
// counter stream ever repeats a value:
//
//	komodo-load -targets http://127.0.0.1:9090 -endpoint notary -shards 8
//
// The client loop itself is internal/load's Run; this command parses
// flags and prints. -json prints a one-element array of load.Result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/load"
)

func main() {
	var (
		url, targets, label string
		jsonOut             bool
		cfg                 load.Config
	)
	flag.StringVar(&url, "url", "", "target server base URL")
	flag.StringVar(&targets, "targets", "", "fleet targets: one gateway URL, or comma-separated backend URLs")
	flag.IntVar(&cfg.Clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&cfg.Duration, "duration", 5*time.Second, "run length (ignored if -requests > 0)")
	flag.IntVar(&cfg.Requests, "requests", 0, "total request budget (0 = run for -duration)")
	flag.StringVar(&cfg.Endpoint, "endpoint", "attest", "workload: attest | notary | mixed")
	flag.BoolVar(&cfg.Verify, "verify", false, "verify every quote client-side with kasm.VerifyQuote")
	flag.BoolVar(&jsonOut, "json", false, "emit machine-readable JSON instead of text")
	flag.StringVar(&cfg.Traceparent, "traceparent", "", "W3C traceparent header to send on every request (exercises inbound trace propagation)")
	flag.IntVar(&cfg.Shards, "shards", 0, "notary shard keys to spread across (client c uses shard s<c mod N>; 0 = unsharded)")
	flag.StringVar(&cfg.TenantMix, "tenant-mix", "", "weighted X-Komodo-Tenant tokens per request: token:weight,token:weight (token '-' sends none)")
	flag.Float64Var(&cfg.Zipf, "zipf", 0, "notary docs drawn Zipf-skewed from a shared corpus with this exponent (> 1; 0 = unique random docs)")
	flag.IntVar(&cfg.ZipfDocs, "zipf-docs", 1024, "distinct documents in the Zipf corpus (with -zipf)")
	flag.BoolVar(&cfg.RespectRetryAfter, "respect-retry-after", false, "honor Retry-After on 429/503 (sleep it, capped at 2s) instead of the fixed backoff")
	flag.Parse()
	var err error
	cfg.Targets, label, err = selectTargets(url, targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "komodo-load:", err)
		flag.Usage()
		os.Exit(2)
	}
	r, err := load.Run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	r.Label = label

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode([]load.Result{r}); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("%-16s %9s %7s %7s %6s %8s %8s %8s %8s\n",
		"run", "req/s", "ok", "429", "err", "p50 ms", "p95 ms", "p99 ms", "max ms")
	fmt.Printf("%-16s %9.1f %7d %7d %6d %8.2f %8.2f %8.2f %8.2f",
		r.Label, r.Throughput, r.OK, r.Rejected, r.Errors+r.Unavail, r.P50ms, r.P95ms, r.P99ms, r.MaxMs)
	if r.CounterMax > 0 {
		fmt.Printf("  counters=%d..%d", r.CounterMin, r.CounterMax)
	}
	if r.CounterDups > 0 {
		fmt.Printf("  DUPS=%d", r.CounterDups)
	}
	if r.CrossingsPerOK > 0 {
		fmt.Printf("  xings/ok=%.2f", r.CrossingsPerOK)
	}
	if r.ReceiptsVerified > 0 {
		fmt.Printf("  receipts=%d", r.ReceiptsVerified)
	}
	if r.CoalescedReceipts > 0 {
		fmt.Printf("  coalesced=%d", r.CoalescedReceipts)
	}
	if r.RetryAfterSlept > 0 {
		fmt.Printf("  retry-slept=%d(%.0fms)", r.RetryAfterSlept, r.RetryAfterSleptMs)
	}
	fmt.Println()
	for _, pb := range r.PerBackend {
		fmt.Printf("  %-14s %9s %7d %7s %6s %8.2f %8.2f %8.2f %8.2f\n",
			"· "+pb.Backend, "", pb.OK, "", "", pb.P50ms, pb.P95ms, pb.P99ms, pb.MaxMs)
	}
	for _, pt := range r.PerTier {
		fmt.Printf("  %-14s %9s %7d %7d %6s %8.2f %8.2f %8.2f\n",
			"· tier/"+pt.Tier, "", pt.OK, pt.Rejected, "", pt.P50ms, pt.P95ms, pt.P99ms)
	}
	if len(r.RejectClasses) > 0 {
		classes := make([]string, 0, len(r.RejectClasses))
		for c := range r.RejectClasses {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Printf("  rejects:")
		for _, c := range classes {
			fmt.Printf(" %s=%d", c, r.RejectClasses[c])
		}
		if r.RetryAfterMissing > 0 {
			fmt.Printf("  RETRY-AFTER-MISSING=%d", r.RetryAfterMissing)
		}
		fmt.Println()
	}
}

// selectTargets turns -url or -targets (exactly one of them) into the
// base URLs load.Run drives and the label its result row carries.
func selectTargets(url, targets string) ([]string, string, error) {
	if (url == "") == (targets == "") {
		return nil, "", errors.New("give exactly one of -url and -targets")
	}
	if url != "" {
		return []string{strings.TrimRight(url, "/")}, "remote", nil
	}
	var out []string
	for _, u := range strings.Split(targets, ",") {
		out = append(out, strings.TrimRight(strings.TrimSpace(u), "/"))
	}
	if len(out) > 1 {
		return out, fmt.Sprintf("direct/%db", len(out)), nil
	}
	return out, "gateway", nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "komodo-load:", err)
	os.Exit(1)
}
