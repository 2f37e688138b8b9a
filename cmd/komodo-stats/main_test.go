package main

import "testing"

// TestSniffStatsDocuments reads the merged snapshot out of both /v1/stats
// shapes: a server's (top-level "telemetry") and a gateway's fleet view
// ("fleet.telemetry"), and still treats an event line as JSONL.
func TestSniffStatsDocuments(t *testing.T) {
	const tel = `{"cycles":1234,"retired":99,"smc":[{"call":3,"name":"KOM_SMC_ENTER","count":7}]}`
	for name, doc := range map[string]string{
		"server":  `{"server":{"requests":7},"telemetry":` + tel + `}`,
		"gateway": `{"gateway":{"requests":7},"backends":[],"fleet":{"backends_reporting":2,"telemetry":` + tel + `}}`,
	} {
		snap, ok := sniffSnapshot([]byte(doc))
		if !ok {
			t.Fatalf("%s document not recognised as a snapshot", name)
		}
		if snap.Cycles != 1234 || snap.Retired != 99 || len(snap.SMC) != 1 || snap.SMC[0].Count != 7 {
			t.Fatalf("%s document: wrong snapshot %+v", name, snap)
		}
	}
	if _, ok := sniffSnapshot([]byte(`{"seq":0,"kind":"smc","call":3}`)); ok {
		t.Fatal("an event line was taken for a snapshot")
	}
}
