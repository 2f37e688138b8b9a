package server

import (
	"net/http"
	"strconv"

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
		obs.Sample{Value: b2f(s.draining.Load())})
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

	var series []obs.HistSeries
	s.lat.Each(func(endpoint, outcome string, h *obs.Histogram) {
		series = append(series, obs.HistSeries{
			Labels: obs.L("endpoint", endpoint, "outcome", outcome),
			Snap:   h.Snapshot(),
		})
	})
	p.Histogram("komodo_request_duration_seconds",
		"Wall-clock request latency by endpoint and outcome.", series...)

	p.Counter("komodo_flight_traces_seen_total",
		"Finished traces offered to the flight recorder.",
		obs.Sample{Value: float64(s.flight.Seen())})
	p.Gauge("komodo_flight_traces_retained",
		"Slow traces currently retained for /v1/debug/traces.",
		obs.Sample{Value: float64(s.flight.Len())})

	// Observability-plane self-metrics: flight-recorder occupancy and
	// telemetry-sink drops (is the debugging plane itself healthy?).
	p.Gauge("komodo_obs_flight_occupancy",
		"Flight recorder slots by state.",
		obs.Sample{Labels: obs.L("state", "used"), Value: float64(s.flight.Len())},
		obs.Sample{Labels: obs.L("state", "capacity"), Value: float64(s.flight.Cap())})
	var sinkDropped uint64
	if s.cfg.SinkDropped != nil {
		sinkDropped = s.cfg.SinkDropped()
	}
	p.Counter("komodo_obs_sink_dropped_total",
		"Telemetry events the process event sink failed to write durably.",
		obs.Sample{Value: float64(sinkDropped)})

	obs.WriteRuntimeMetrics(p)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleDebugTraces serves the flight recorder: the retained slowest
// traces as an indented JSON obs.Dump, slowest first. With ?id=<32-hex
// trace id> it returns just that trace (404 if it was never retained or
// has been evicted). With ?min_ms=<float> only traces at least that slow
// are listed (the dump's "seen" and "retained" fields still describe the
// whole recorder, so the filter is visible, not silent).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		td, ok := s.flight.Find(id)
		if !ok {
			s.replyErr(w, http.StatusNotFound, "trace %s not retained", id)
			return
		}
		s.reply(w, http.StatusOK, td)
		return
	}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		minMS, err := strconv.ParseFloat(v, 64)
		if err != nil || minMS < 0 {
			s.replyErr(w, http.StatusBadRequest, "min_ms must be a non-negative number, got %q", v)
			return
		}
		cut := int64(minMS * 1e6)
		kept := []obs.TraceData{}
		for _, td := range s.flight.Slowest() {
			if td.DurNS >= cut {
				kept = append(kept, td)
			}
		}
		s.reply(w, http.StatusOK, obs.Dump{
			Seen:     s.flight.Seen(),
			Retained: s.flight.Len(),
			Traces:   kept,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w)
}
