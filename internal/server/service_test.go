package server

import (
	"context"
	"testing"
)

// TestNotarySignBlockCacheSteadyState: in the durable serving cycle (sign,
// checkpoint, rebase of the golden snapshot) every block a steady-state
// notary sign dispatches is already cached, so a sign misses no block and
// fills none. Heads that alias one cache slot would evict each other and
// refill on every sign.
func TestNotarySignBlockCacheSteadyState(t *testing.T) {
	sys, state, err := Blueprint(1)()
	if err != nil {
		t.Fatal(err)
	}
	st := state.(*WorkerState)
	golden := sys.Snapshot()
	doc := []byte("steady-state block cache probe document")
	sign := func() {
		t.Helper()
		if _, err := NotarySign(context.Background(), st, doc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CheckpointEnclave(st.Notary); err != nil {
			t.Fatal(err)
		}
		if !sys.Rebase(golden) {
			t.Fatal("rebase of the golden snapshot fell back")
		}
	}
	for i := 0; i < 3; i++ {
		sign()
	}
	before := sys.TelemetrySnapshot().BlockCache
	const signs = 5
	for i := 0; i < signs; i++ {
		sign()
	}
	after := sys.TelemetrySnapshot().BlockCache
	if after.Hits == before.Hits {
		t.Fatal("no block-cache hits: the signs did not run through the block cache")
	}
	if misses, fills := after.Misses-before.Misses, after.Fills-before.Fills; misses != 0 || fills != 0 {
		t.Fatalf("%d steady-state signs: %d block-cache misses and %d fills, want 0 (hits %d, revalidated %d)",
			signs, misses, fills, after.Hits-before.Hits, after.Revalidated-before.Revalidated)
	}
}
