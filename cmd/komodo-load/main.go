// komodo-load is a closed-loop load generator for the enclave serving
// layer. Each client loops request → response → next request, so offered
// load tracks service capacity and the queue exercises real backpressure.
//
// Against a running komodo-serve:
//
//	komodo-load -url http://127.0.0.1:8787 -clients 8 -duration 5s -verify
//
// Self-contained provisioning comparison (boots its own pools in-process,
// the EXPERIMENTS.md serving section):
//
//	komodo-load -compare -workers 4 -clients 8 -duration 5s
//	komodo-load -sweep 1,2,4,8 -clients 8 -duration 3s
//
// Fleet mode: -targets takes a komodo-gateway URL (or a comma-separated
// backend list to skip the gateway), shards notary traffic with -shards,
// attributes latency per backend via the X-Komodo-Backend response
// header, and cross-checks that no (backend, worker, epoch, restores)
// counter stream ever repeats a value. -sweep-backends boots whole
// in-process fleets (N backends behind a gateway) for the scaling curve:
//
//	komodo-load -targets http://127.0.0.1:9090 -endpoint notary -shards 8
//	komodo-load -sweep-backends 1,2,4 -workers 2 -endpoint notary -json
//
// The client loop itself is internal/load's Run; this command parses
// flags, boots in-process stacks and prints.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/load"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/tenant"
)

type options struct {
	url         string
	clients     int
	duration    time.Duration
	requests    int
	endpoint    string
	verify      bool
	jsonOut     bool
	traceparent string

	targets       string
	shards        int
	sweepBackends string

	workers int
	queue   int
	mode    string
	seed    uint64
	reuse   int
	compare bool
	sweep   string

	batch       int
	batchWindow time.Duration
	tiers       string
	tenants     string
	tenantMix   string

	zipf         float64
	zipfDocs     int
	respectRetry bool
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "target server base URL (empty: boot an in-process pool)")
	flag.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "run length (ignored if -requests > 0)")
	flag.IntVar(&o.requests, "requests", 0, "total request budget (0 = run for -duration)")
	flag.StringVar(&o.endpoint, "endpoint", "attest", "workload: attest | notary | mixed")
	flag.BoolVar(&o.verify, "verify", false, "verify every quote client-side with kasm.VerifyQuote")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	flag.StringVar(&o.traceparent, "traceparent", "", "W3C traceparent header to send on every request (exercises inbound trace propagation)")
	flag.IntVar(&o.workers, "workers", 4, "in-process: pool size")
	flag.IntVar(&o.queue, "queue", 64, "in-process: queue depth")
	flag.StringVar(&o.mode, "mode", "snapshot", "in-process: snapshot | boot")
	flag.Uint64Var(&o.seed, "seed", 42, "in-process: board seed")
	flag.IntVar(&o.reuse, "max-reuse", 0, "in-process: per-worker reuse limit")
	flag.BoolVar(&o.compare, "compare", false, "run snapshot-clone vs boot-per-request back to back")
	flag.StringVar(&o.sweep, "sweep", "", "comma-separated pool sizes to sweep (snapshot mode)")
	flag.StringVar(&o.targets, "targets", "", "fleet targets: one gateway URL, or comma-separated backend URLs")
	flag.IntVar(&o.shards, "shards", 0, "notary shard keys to spread across (client c uses shard s<c mod N>; 0 = unsharded)")
	flag.StringVar(&o.sweepBackends, "sweep-backends", "", "comma-separated fleet sizes: boot N in-process backends behind a gateway per entry")
	flag.IntVar(&o.batch, "batch", 0, "in-process: batched notary signing with this batch size (0 = unbatched)")
	flag.DurationVar(&o.batchWindow, "batch-window", 2*time.Millisecond, "in-process: partial-batch close window (with -batch)")
	flag.StringVar(&o.tiers, "tiers", "", "in-process: tenant tiers name:rate:burst:quota[:shedat];...")
	flag.StringVar(&o.tenants, "tenants", "", "in-process: tenant tokens token=tier,... (with -tiers)")
	flag.StringVar(&o.tenantMix, "tenant-mix", "", "weighted X-Komodo-Tenant tokens per request: token:weight,token:weight (token '-' sends none)")
	flag.Float64Var(&o.zipf, "zipf", 0, "notary docs drawn Zipf-skewed from a shared corpus with this exponent (> 1; 0 = unique random docs)")
	flag.IntVar(&o.zipfDocs, "zipf-docs", 1024, "distinct documents in the Zipf corpus (with -zipf)")
	flag.BoolVar(&o.respectRetry, "respect-retry-after", false, "honor Retry-After on 429/503 (sleep it, capped at 2s) instead of the fixed backoff")
	flag.Parse()
	var results []load.Result
	add := func(r load.Result, err error) {
		if err != nil {
			fail(err)
		}
		results = append(results, r)
	}
	switch {
	case o.sweepBackends != "":
		for _, f := range strings.Split(o.sweepBackends, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fail(fmt.Errorf("bad -sweep-backends entry %q", f))
			}
			add(runFleet(o, n))
		}
	case o.targets != "":
		var bases []string
		for _, u := range strings.Split(o.targets, ",") {
			bases = append(bases, strings.TrimRight(strings.TrimSpace(u), "/"))
		}
		label := "gateway"
		if len(bases) > 1 {
			label = fmt.Sprintf("direct/%db", len(bases))
		}
		add(run(o, bases, label))
	case o.compare:
		for _, mode := range []string{"boot", "snapshot"} {
			o.mode = mode
			add(runInProcess(o))
		}
	case o.sweep != "":
		for _, f := range strings.Split(o.sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fail(fmt.Errorf("bad -sweep entry %q", f))
			}
			o.workers = n
			add(runInProcess(o))
		}
	case o.url == "":
		add(runInProcess(o))
	default:
		add(run(o, []string{strings.TrimRight(o.url, "/")}, "remote"))
	}

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("%-16s %9s %7s %7s %6s %8s %8s %8s %8s\n",
		"run", "req/s", "ok", "429", "err", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, r := range results {
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
	if len(results) == 2 && results[0].Mode == "boot-each" && results[1].Mode == "snapshot" &&
		results[0].Throughput > 0 {
		fmt.Printf("\nsnapshot-clone provisioning: %.1fx the throughput of boot-per-request\n",
			results[1].Throughput/results[0].Throughput)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "komodo-load:", err)
	os.Exit(1)
}

// run drives the load flags at the targets.
func run(o options, targets []string, label string) (load.Result, error) {
	r, err := load.Run(context.Background(), load.Config{
		Targets:           targets,
		Clients:           o.clients,
		Duration:          o.duration,
		Requests:          o.requests,
		Endpoint:          o.endpoint,
		Verify:            o.verify,
		Traceparent:       o.traceparent,
		Shards:            o.shards,
		TenantMix:         o.tenantMix,
		Zipf:              o.zipf,
		ZipfDocs:          o.zipfDocs,
		RespectRetryAfter: o.respectRetry,
	})
	r.Label = label
	return r, err
}

// start boots one in-process backend from the pool and serving flags
// (each backend gets its own tenant registry — tier buckets are per-node
// state).
func start(o options, mode pool.Mode) (*load.Stack, error) {
	scfg := server.Config{
		QueueDepth:     o.queue,
		RequestTimeout: 30 * time.Second,
		BatchMaxSize:   o.batch,
		BatchWindow:    o.batchWindow,
	}
	if o.tiers != "" {
		specs, err := tenant.ParseTiers(o.tiers)
		if err != nil {
			return nil, fmt.Errorf("-tiers: %w", err)
		}
		tokens, err := tenant.ParseTenants(o.tenants)
		if err != nil {
			return nil, fmt.Errorf("-tenants: %w", err)
		}
		if scfg.Admission, err = tenant.NewRegistry(specs, tokens, ""); err != nil {
			return nil, err
		}
	}
	return load.Start(pool.Config{Size: o.workers, Boot: server.Blueprint(o.seed), MaxReuse: o.reuse, Mode: mode}, scfg)
}

// runInProcess boots one backend in -mode and drives it.
func runInProcess(o options) (load.Result, error) {
	var mode pool.Mode
	switch o.mode {
	case "snapshot":
		mode = pool.ModeSnapshot
	case "boot":
		mode = pool.ModeBootEach
	default:
		return load.Result{}, fmt.Errorf("unknown -mode %q", o.mode)
	}
	st, err := start(o, mode)
	if err != nil {
		return load.Result{}, err
	}
	r, err := run(o, []string{st.URL}, fmt.Sprintf("%s/%dw", o.mode, o.workers))
	r.Mode = mode.String()
	r.Workers = o.workers
	return r, errors.Join(err, st.Close())
}

// runFleet boots n snapshot-mode backends behind an in-process gateway
// and drives the load through the gateway — the -sweep-backends scaling
// measurement. Each fleet entry is labelled fleet/<n>b and carries the
// per-backend view.
func runFleet(o options, n int) (r load.Result, err error) {
	var specs []gateway.BackendSpec
	for i := 0; i < n; i++ {
		st, serr := start(o, pool.ModeSnapshot)
		if serr != nil {
			return r, fmt.Errorf("backend %d: %w", i, serr)
		}
		defer func() { err = errors.Join(err, st.Close()) }()
		specs = append(specs, gateway.BackendSpec{Name: fmt.Sprintf("b%d", i), URL: st.URL})
	}
	g, err := gateway.New(gateway.Config{Backends: specs, ProbeInterval: 200 * time.Millisecond})
	if err != nil {
		return r, err
	}
	defer g.Close()
	gts := httptest.NewServer(g)
	defer gts.Close()

	if o.shards == 0 {
		// Spread shards well past the fleet size so every backend owns
		// several arcs of real traffic.
		o.shards = 4 * n
	}
	r, err = run(o, []string{gts.URL}, fmt.Sprintf("fleet/%db", n))
	r.Mode = "snapshot"
	r.Workers = o.workers
	r.Backends = n
	return r, err
}
