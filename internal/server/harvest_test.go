package server

import (
	"testing"

	"repro/internal/kapi"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestHarvestAllocatesPerRequestEvent: with the trace ring full of other
// requests' events, harvesting one request's cycle spans reads only the
// events recorded since its mark, in place, into the trace's inline
// record: up to obs.InlineSpans own events it allocates nothing at all.
// Each run records its own events onto a fresh trace, and AllocsPerRun
// warms up once before it counts.
func TestHarvestAllocatesPerRequestEvent(t *testing.T) {
	rec := telemetry.New()
	for range 2 * telemetry.DefaultRingCapacity {
		rec.ObserveSMC(kapi.SMCEnter, [4]uint32{}, 0, 0, 100, 10)
	}
	const runs = 20
	for _, own := range []int{1, 4, obs.InlineSpans} {
		traces := make([]*obs.Trace, runs+1) // AllocsPerRun makes one warm-up run
		for i := range traces {
			traces[i] = obs.NewTrace("/v1/notary/sign", "")
		}
		run := 0
		allocs := testing.AllocsPerRun(runs, func() {
			tr := traces[run]
			run++
			mark := rec.Ring().Total()
			rec.SetSpanTag(tr.SpanTag())
			for range own {
				rec.ObserveSMC(kapi.SMCEnter, [4]uint32{}, 0, 0, 1000, 10)
			}
			rec.SetSpanTag(0)
			harvestCycleSpans(tr, rec, mark)
		})
		for _, tr := range traces {
			spans := tr.Data().Spans
			if len(spans) != own {
				t.Fatalf("%d own events: harvested %d spans", own, len(spans))
			}
			if sp := spans[0]; sp.Name != "smc:KOM_SMC_ENTER" || sp.Cycles != 1000 || sp.Detail != "err=0" {
				t.Fatalf("%d own events: harvested %+v", own, sp)
			}
		}
		if allocs != 0 {
			t.Errorf("%d own events: harvest allocated %v times, want 0", own, allocs)
		}
	}
}
