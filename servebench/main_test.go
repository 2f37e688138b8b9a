package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// shortRun is a run small enough for a test: one set-up, a short
// warm-up and a 2 s window.
func shortRun(t *testing.T, w workload, seed int64, trace bool) result {
	t.Helper()
	res, err := run(config{w: w, seed: seed, window: 2 * time.Second, warmup: 200 * time.Millisecond,
		setups: 1, trace: trace, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.attempted == 0 || res.failed != 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
			w.name, trace, res.correct, res.attempted, res.failed, res.notes)
	}
	return res
}

// TestRunsPrintTheDeclaredMetrics runs every workload in both modes:
// every reply verifies, and the metrics printed are exactly the ones
// BENCHMARK.json declares, with its units. End-to-end metrics are never 0.
func TestRunsPrintTheDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w, 3, trace)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(got), len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				if !ok || m.unit != d.Unit {
					t.Errorf("%s trace=%v: %s: got %+v, want unit %q", name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.value <= 0 {
					t.Errorf("%s: %s = %v", name, d.Name, m.value)
				}
			}
		}
	}
}

// TestCountsRepeatExactly: the simulator is deterministic, so the
// instructions retired and monitor calls per attest are the same on
// every run, whatever the seed and however many operations completed.
func TestCountsRepeatExactly(t *testing.T) {
	var got [2]map[string]float64
	for i, seed := range []int64{1, 2} {
		got[i] = map[string]float64{}
		for _, m := range shortRun(t, workloads["attest"], seed, true).metrics {
			got[i][m.name] = m.value
		}
	}
	for _, name := range []string{"arm.insns_per_op", "monitor.smc_per_op"} {
		if got[0][name] == 0 || got[0][name] != got[1][name] {
			t.Errorf("%s: %v then %v", name, got[0][name], got[1][name])
		}
	}
}
