// komodo-gateway fronts a fleet of komodo-serve backends: it
// consistent-hash-routes notary signing by counter shard, spreads
// stateless attestation round-robin, health-checks every backend with
// jittered probes, fails over routing when a backend dies, merges
// fleet-wide stats and telemetry at /v1/stats, and live-migrates sealed
// notary state between backends on demand. See docs/GATEWAY.md.
//
//	komodo-gateway -addr 127.0.0.1:9090 \
//	    -backends a=http://127.0.0.1:8787,b=http://127.0.0.1:8788
//
// Live migration (move backend a's shards and sealed counters onto b):
//
//	curl -X POST 'http://127.0.0.1:9090/v1/admin/migrate?from=a&to=b&drain=1'
//
// SIGINT/SIGTERM drains gracefully: /v1/healthz starts failing, new
// requests are refused with a retryable 503, in-flight proxies finish,
// then the process exits 0. SIGQUIT dumps the slowest proxied traces to
// stderr without stopping.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (use :0 for a random port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	backends := flag.String("backends", "", "comma-separated backends, each name=url or bare url (required)")
	vnodes := flag.Int("vnodes", 0, "ring points per backend (0 = default 64)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "mean health-probe period per backend (jittered ±25%)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline")
	downAfter := flag.Int("down-after", 2, "consecutive probe failures before a backend is demoted")
	upAfter := flag.Int("up-after", 2, "consecutive probe successes before a down backend is promoted")
	reqTimeout := flag.Duration("timeout", 60*time.Second, "end-to-end deadline per proxied request")
	maxInFlight := flag.Int("max-in-flight", 256, "concurrent proxied requests before shedding with 429")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	flightSize := flag.Int("flight-traces", 0, "slow-request traces retained for /v1/debug/traces (0 = default)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "komodo-gateway:", err)
		os.Exit(1)
	}

	specs, err := parseBackends(*backends)
	if err != nil {
		fail(err)
	}

	g, err := gateway.New(gateway.Config{
		Backends:           specs,
		VNodes:             *vnodes,
		ProbeInterval:      *probeInterval,
		ProbeTimeout:       *probeTimeout,
		DownAfter:          *downAfter,
		UpAfter:            *upAfter,
		RequestTimeout:     *reqTimeout,
		MaxInFlight:        *maxInFlight,
		FlightRecorderSize: *flightSize,
	})
	if err != nil {
		fail(err)
	}
	defer g.Close()
	for _, s := range specs {
		fmt.Printf("backend %s -> %s\n", s.Name, s.URL)
	}

	if err := g.Edge().Serve(*addr, *addrFile, g.Drain, *drainTimeout); err != nil {
		fail(err)
	}
	st := g.Stats().Gateway
	fmt.Printf("drained cleanly: %d requests proxied, %d failovers, %d migrations\n",
		st.Proxied, st.Failovers, st.Migrations)
}

// parseBackends parses "name=url,name=url" (bare URLs get positional
// names b0, b1, ...).
func parseBackends(s string) ([]gateway.BackendSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required (name=url,name=url)")
	}
	var specs []gateway.BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url := "", part
		if i := strings.Index(part, "="); i > 0 && !strings.Contains(part[:i], "/") {
			name, url = part[:i], part[i+1:]
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			url = "http://" + url
		}
		specs = append(specs, gateway.BackendSpec{Name: name, URL: url})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-backends parsed to zero entries")
	}
	return specs, nil
}
