package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/kapi"
	"repro/internal/telemetry"
)

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

// TestStreamAndSnapshotAgreeOnErrors records one set of boundary events
// into a recorder with a JSONL sink, then checks that komodo-stats counts
// the same errors per call from the stream as from the recorder's
// snapshot, return codes 4 (KOM_ERR_ALREADY_FINAL) and 7
// (KOM_ERR_INTERRUPTED) included.
func TestStreamAndSnapshotAgreeOnErrors(t *testing.T) {
	var stream bytes.Buffer
	r := telemetry.New()
	r.SetSink(telemetry.NewJSONLSink(&stream))
	for _, errc := range []kapi.Err{kapi.ErrSuccess, kapi.ErrAlreadyFinal, kapi.ErrInterrupted, kapi.ErrInterrupted} {
		r.ObserveSMC(kapi.SMCEnter, [4]uint32{}, uint32(errc), 0, 100, 10)
	}
	r.ObserveSMC(kapi.SMCFinalise, [4]uint32{}, uint32(kapi.ErrAlreadyFinal), 0, 50, 10)
	r.ObserveSVC(kapi.SVCGetRandom, uint32(kapi.ErrSuccess), 20)

	doc, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := sniffSnapshot(doc)
	if !ok {
		t.Fatal("snapshot not recognised")
	}
	sum, err := summariseJSONL(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"KOM_SMC_ENTER": 3, "KOM_SMC_FINALISE": 1, "KOM_SVC_GET_RANDOM": 0}
	for kind, calls := range map[string][]telemetry.CallStats{"smc": snap.SMC, "svc": snap.SVC} {
		for _, c := range calls {
			a := sum.perKind[kind][c.Name]
			if a == nil {
				t.Fatalf("%s %s in the snapshot but not in the stream", kind, c.Name)
			}
			if a.errors != c.Errors || c.Errors != want[c.Name] {
				t.Errorf("%s %s: stream errors=%d, snapshot errors=%d, want %d", kind, c.Name, a.errors, c.Errors, want[c.Name])
			}
			delete(want, c.Name)
		}
	}
	if len(want) > 0 {
		t.Errorf("calls missing from the snapshot: %v", want)
	}
}
