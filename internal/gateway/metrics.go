package gateway

import (
	"net/http"

	"repro/internal/obs"
)

// handleMetrics serves the gateway's Prometheus exposition: the
// komodo_gateway_* families (edge counters from the GatewayStats tags,
// per-backend probe/proxy state from the BackendStatus tags with a backend
// label, then the families with no /v1/stats field: probe totals, limits,
// backend_up and the latency histograms) plus Go runtime stats. It does
// not fan out to the backends. Fleet-wide enclave telemetry is
// deliberately NOT re-exported here — scrape each backend's /metrics for
// that, or read the merged JSON view at /v1/stats; re-exporting sums
// under the same names would double-count in any aggregating Prometheus
// setup.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	edge, backends := g.edgeStats()
	obs.Render(p, edge)
	obs.Render(p, backends)

	p.Counter("komodo_gateway_probes_total",
		"Health probes completed, summed over all backends.",
		obs.Sample{Value: float64(g.probesTotal.Load())})
	p.Gauge("komodo_gateway_in_flight_limit",
		"Configured gateway in-flight bound (MaxInFlight).",
		obs.Sample{Value: float64(g.cfg.MaxInFlight)})
	p.Gauge("komodo_gateway_draining",
		"1 while the gateway is draining, else 0.",
		obs.Sample{Value: obs.Flag(g.draining.Load())})

	up := make([]obs.Sample, len(backends))
	lat := make([]obs.HistSeries, len(backends))
	for i, b := range backends {
		l := obs.L("backend", b.Name)
		up[i] = obs.Sample{Labels: l, Value: obs.Flag(b.State == StateUp.String())}
		lat[i] = obs.HistSeries{Labels: l, Snap: g.backends[i].lat.Snapshot()}
	}
	p.Gauge("komodo_gateway_backend_up",
		"1 when the backend is routable (probe state up), else 0.", up...)
	p.Histogram("komodo_gateway_backend_duration_seconds",
		"Proxied request latency per backend (gateway-measured).", lat...)

	g.edge.WriteMetrics(p, "komodo_gateway_request_duration_seconds",
		"Gateway-edge request latency by endpoint and outcome.")

	obs.WriteRuntimeMetrics(p)
}
