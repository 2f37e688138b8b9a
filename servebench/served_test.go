package main

import "testing"

// TestDurabilityCheckCatchesReplay: the post-run check passes on a state
// dir that holds every acknowledged counter, and fails when a worker
// acknowledged a counter the reopened store issues again.
func TestDurabilityCheckCatchesReplay(t *testing.T) {
	const seed = 3
	w := workloads["sign-durable"]
	dir := t.TempDir()
	st, err := openStack(w, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	c := newHTTPClient(st, [8]uint32{})
	g := newGenerator(w, seed, 0, nil)
	led := newLedger()
	for i := 0; i < 4; i++ {
		_, o, err := c.do(g.next())
		if err == nil {
			err = led.record(0, o, false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	c.tr.CloseIdleConnections()
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	acked := led.highest()
	if err := checkDurable(w, seed, dir, acked); err != nil {
		t.Fatal(err)
	}
	// The check signs without saving, so the store still resumes worker 0
	// right after its last acknowledged counter.
	acked[0]++
	if err := checkDurable(w, seed, dir, acked); err == nil {
		t.Fatal("the check passed although worker 0 reissued an acknowledged counter")
	}
}
