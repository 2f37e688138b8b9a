// komodo-serve runs the enclave serving layer: a warm pool of simulated
// Komodo boards behind an HTTP/JSON front end offering network
// attestation (/v1/attest?nonce=...), notary signing (/v1/notary/sign),
// health and stats. See docs/SERVING.md for the endpoint contract.
//
//	komodo-serve -addr 127.0.0.1:8787 -workers 4
//
// With -state-dir the notary counters become durable: every sign seals
// the notary enclave into a checkpoint appended to a crash-safe WAL in
// that directory, and a restarted server (same -seed, same directory)
// restores each worker's latest checkpoint at boot, so counters continue
// strictly past their last issued value. See docs/SEALING.md.
//
// SIGINT/SIGTERM drains gracefully: health checks start failing, in-flight
// requests finish, the pool shuts down, then the process exits 0.
//
// Observability (docs/OBSERVABILITY.md): /metrics serves Prometheus text
// exposition, /v1/debug/traces dumps the slowest request traces, SIGQUIT
// writes the same dump to stderr without stopping the server, and
// -pprof-addr exposes net/http/pprof on a separate listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/pool"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/komodo"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8787", "listen address (use :0 for a random port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	workers := flag.Int("workers", 4, "pool size (simulated boards)")
	queue := flag.Int("queue", 64, "request queue depth (429 beyond this)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request worker-wait deadline")
	reuse := flag.Int("max-reuse", 0, "retire a worker after this many requests (0 = never)")
	seed := flag.Uint64("seed", 42, "board RNG seed (all workers share it: identical quote keys)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	healthcheck := flag.Bool("healthcheck", false, "run a full attest probe after every restore")
	stateDir := flag.String("state-dir", "", "durable notary state directory (empty: counters are volatile)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty: disabled)")
	flightSize := flag.Int("flight-traces", 0, "slow-request traces retained for /v1/debug/traces (0 = default)")
	batchSize := flag.Int("batch", 0, "batched notary signing: close a batch at this many signs (0 = unbatched)")
	batchMin := flag.Int("batch-min", 0, "adaptive K: floor of the close threshold; K retunes between this and -batch (0 = fixed K)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "close a partial batch after this window (with -batch)")
	batchQueue := flag.Int("batch-queue", 0, "pending batch-sign waiters before 429 queue_full (0 = 4x batch size)")
	batchDedup := flag.Bool("batch-dedup", false, "coalesce identical (doc, tenant) signs within a batch onto one leaf")
	groupCommit := flag.Bool("group-commit", false, "coalesce concurrent checkpoint appends into one WAL write+fsync group (with -state-dir)")
	recordDir := flag.String("record-dir", "", "persist replayable traces of flight-retained requests here (empty: off; docs/REPLAY.md)")
	tiers := flag.String("tiers", "", "tenant tiers: name:rate:burst:quota[:shedat];... (empty: no admission control)")
	tenants := flag.String("tenants", "", "tenant tokens: token=tier,token=tier,... (with -tiers)")
	defaultTier := flag.String("default-tier", "", "tier for unknown/absent tokens (default: first in -tiers)")
	quotaWindow := flag.Duration("quota-window", 24*time.Hour, "daily-quota reset window (with -tiers)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "komodo-serve:", err)
		os.Exit(1)
	}

	var ckpts *server.CheckpointStore
	if *stateDir != "" {
		var sopts []store.Option
		if *groupCommit {
			sopts = append(sopts, store.WithGroupCommit())
		}
		var err error
		if ckpts, err = server.OpenCheckpointStore(*stateDir, sopts...); err != nil {
			fail(err)
		}
		defer ckpts.Close()
		if n := len(ckpts.Workers()); n > 0 {
			fmt.Printf("state dir %s: checkpoints for %d worker(s) recovered\n", *stateDir, n)
		}
	}

	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			fail(fmt.Errorf("record dir: %w", err))
		}
	}

	// The debug fleet tracks a freeze-the-world monitor attachment per
	// worker (SIGUSR1, /v1/debug/freeze, /v1/debug/mon). Installed from
	// the provision hook so a rebooted worker re-attaches automatically.
	fleet := replay.NewFleet()
	restore := server.RestoreProvision(ckpts)
	provision := func(id int, sys *komodo.System, state any) error {
		if err := restore(id, sys, state); err != nil {
			return err
		}
		fleet.Install(id, sys)
		return nil
	}

	pcfg := pool.Config{
		Size:      *workers,
		Boot:      server.Blueprint(*seed),
		MaxReuse:  *reuse,
		Provision: provision,
	}
	if *healthcheck {
		pcfg.HealthCheck = server.HealthCheck
	}

	bootStart := time.Now()
	p, err := pool.New(pcfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("booted %d worker(s) in %v\n", *workers, time.Since(bootStart).Round(time.Millisecond))

	var admission *tenant.Registry
	if *tiers != "" {
		specs, err := tenant.ParseTiers(*tiers)
		if err != nil {
			fail(fmt.Errorf("-tiers: %w", err))
		}
		tokens, err := tenant.ParseTenants(*tenants)
		if err != nil {
			fail(fmt.Errorf("-tenants: %w", err))
		}
		admission, err = tenant.NewRegistry(specs, tokens, *defaultTier, tenant.WithQuotaWindow(*quotaWindow))
		if err != nil {
			fail(fmt.Errorf("admission: %w", err))
		}
		fmt.Printf("admission: %d tier(s), %d token(s), default %q\n", len(specs), len(tokens), admission.DefaultTier())
	}
	if *batchSize > 0 {
		switch {
		case *batchMin > 0:
			fmt.Printf("batched signing: adaptive K in [%d,%d] window=%v dedup=%v\n", *batchMin, *batchSize, *batchWindow, *batchDedup)
		default:
			fmt.Printf("batched signing: K=%d window=%v dedup=%v\n", *batchSize, *batchWindow, *batchDedup)
		}
	}

	srv := server.New(server.Config{
		Pool:               p,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		Checkpoints:        ckpts,
		FlightRecorderSize: *flightSize,
		Admission:          admission,
		BatchMaxSize:       *batchSize,
		BatchMinSize:       *batchMin,
		BatchWindow:        *batchWindow,
		BatchQueue:         *batchQueue,
		BatchDedup:         *batchDedup,
		RecordDir:          *recordDir,
		Fleet:              fleet,
	})
	defer srv.Close()

	if *pprofAddr != "" {
		// pprof gets its own mux and listener so profiling is never
		// reachable through the serving address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(fmt.Errorf("pprof listener: %w", err))
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, pm)
	}

	// SIGUSR1 freezes the world on each worker it can catch mid-enclave,
	// dumps registers and disassembly around PC to stderr, and resumes —
	// the no-client "what is this board executing right now" lever. An
	// idle worker (no enclave instruction stream to park) is reported and
	// skipped; served results are not perturbed.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			fmt.Fprintln(os.Stderr, "SIGUSR1: freeze-the-world worker dump")
			for _, id := range fleet.IDs() {
				e, err := fleet.Get(id)
				if err != nil {
					continue
				}
				if err := e.Fz.Freeze(200 * time.Millisecond); err != nil {
					fmt.Fprintf(os.Stderr, "worker %d: %v\n", id, err)
					continue
				}
				fmt.Fprintf(os.Stderr, "worker %d frozen:\n%s\n%s\n",
					id, e.Sess.Exec("regs"), e.Sess.Exec("dis"))
				if err := e.Fz.Resume(); err != nil {
					fmt.Fprintf(os.Stderr, "worker %d resume: %v\n", id, err)
				}
			}
		}
	}()

	if err := srv.Edge().Serve(*addr, *addrFile, srv.Drain, *drainTimeout); err != nil {
		fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		fail(fmt.Errorf("pool drain: %w", err))
	}
	ps := p.Stats()
	fmt.Printf("drained cleanly: %d requests served, %d boots, %d restores\n", ps.Gets, ps.Boots, ps.Restores)
}
