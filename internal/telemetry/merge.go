package telemetry

import "repro/internal/obs"

// Merge combines snapshots from several independently instrumented
// platforms (e.g. the boards of a serving pool) into one aggregate view,
// by the Snapshot's merge tags: counters, cycle totals, histograms and TLB
// entry counts sum, the setup-cycle gauges (the latest measurement on one
// platform) keep the maximum, and call series merge by call number.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{Lifecycle: map[string]uint64{}, PageMoves: map[string]uint64{}}
	for _, s := range snaps {
		obs.Merge(&out, s)
	}
	return out
}
