//go:build race

package obs

// allocFree is false under the race detector, whose sync.Pool drops a
// random share of what is put back, so a reused trace is sometimes
// allocated afresh. Allocation counts are asserted in every other build.
const allocFree = false
