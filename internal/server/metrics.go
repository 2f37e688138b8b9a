package server

import (
	"net/http"

	"repro/internal/obs"
)

// handleMetrics serves the Prometheus text exposition format (0.0.4) via
// obs.PromWriter: every family that /v1/stats also carries is rendered
// from the tags on StatsResponse (server counters, pool, batching, store,
// admission, and the monitor telemetry merged across the currently idle
// workers); the families with no /v1/stats field follow as direct calls.
// See docs/OBSERVABILITY.md for the name reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	st := s.Stats()
	obs.Render(p, st)

	p.Gauge("komodo_server_queue_len",
		"Requests currently holding a service slot (in service plus waiting).",
		obs.Sample{Value: float64(len(s.slots))})
	p.Gauge("komodo_server_draining",
		"1 while the server is draining, else 0.",
		obs.Sample{Value: obs.Flag(s.draining.Load())})
	if s.agg != nil {
		p.Histogram("komodo_batch_fill_duration_seconds",
			"Batch fill latency: first enqueue to seal.",
			obs.HistSeries{Snap: s.agg.FillHist().Snapshot()})
	}
	if ss := st.Store; ss != nil {
		// The mean is a method of store.Stats, not a field.
		p.Gauge("komodo_store_group_size",
			"Commit-group size: last flushed, largest, and mean.",
			obs.Sample{Labels: obs.L("stat", "last"), Value: float64(ss.GroupLast)},
			obs.Sample{Labels: obs.L("stat", "max"), Value: float64(ss.GroupSizeMax)},
			obs.Sample{Labels: obs.L("stat", "mean"), Value: ss.MeanGroup()})
	}
	if s.cfg.Admission != nil {
		var tiers []obs.HistSeries
		s.tierLat.Each(func(tier, outcome string, h *obs.Histogram) {
			tiers = append(tiers, obs.HistSeries{
				Labels: obs.L("tier", tier, "outcome", outcome),
				Snap:   h.Snapshot(),
			})
		})
		p.Histogram("komodo_tenant_request_duration_seconds",
			"Wall-clock latency of admitted requests by tier and outcome.", tiers...)
	}

	s.edge.WriteMetrics(p, "komodo_request_duration_seconds",
		"Wall-clock request latency by endpoint and outcome.")

	// Observability-plane self-metrics: flight-recorder occupancy and
	// telemetry-sink drops (is the debugging plane itself healthy?).
	p.Gauge("komodo_obs_flight_occupancy",
		"Flight recorder slots by state.",
		obs.Sample{Labels: obs.L("state", "used"), Value: float64(s.edge.Flight().Len())},
		obs.Sample{Labels: obs.L("state", "capacity"), Value: float64(s.edge.Flight().Cap())})
	var sinkDropped uint64
	if s.cfg.SinkDropped != nil {
		sinkDropped = s.cfg.SinkDropped()
	}
	p.Counter("komodo_obs_sink_dropped_total",
		"Telemetry events the process event sink failed to write durably.",
		obs.Sample{Value: float64(sinkDropped)})

	obs.WriteRuntimeMetrics(p)
}
