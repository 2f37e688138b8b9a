package server

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kapi"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestHarvestAllocatesPerRequestEvent: with the trace ring full of other
// requests' events, harvesting one request's cycle spans copies only the
// events recorded since its mark. The bytes it allocates follow the
// request's own event count, far below one copy of the 1,024-event ring.
func TestHarvestAllocatesPerRequestEvent(t *testing.T) {
	rec := telemetry.New()
	for range 2 * telemetry.DefaultRingCapacity {
		rec.ObserveSMC(kapi.SMCEnter, [4]uint32{}, 0, 0, 100, 10)
	}
	ringBytes := uint64(telemetry.DefaultRingCapacity) * uint64(unsafe.Sizeof(telemetry.Event{}))
	for _, own := range []int{1, 4, 16} {
		tr := obs.NewTrace("/v1/notary/sign", "")
		mark := rec.Ring().Total()
		rec.SetSpanTag(tr.SpanTag())
		for range own {
			rec.ObserveSMC(kapi.SMCEnter, [4]uint32{}, 0, 0, 1000, 10)
		}
		rec.SetSpanTag(0)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		harvestCycleSpans(tr, rec, mark)
		runtime.ReadMemStats(&after)

		if got := len(tr.Data().Spans); got != own {
			t.Fatalf("%d own events: harvested %d spans", own, got)
		}
		perEvent := uint64(unsafe.Sizeof(telemetry.Event{})) + 512 // the event plus its span
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(own)*perEvent; got > limit {
			t.Errorf("%d own events: harvest allocated %d bytes, want at most %d (one ring copy is %d)",
				own, got, limit, ringBytes)
		}
	}
}
