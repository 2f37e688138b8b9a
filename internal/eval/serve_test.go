package eval

import "testing"

// The serving tables (BatchAB, WritePathSweep) are rows of serveRow; these
// run one row of each kind on a small budget.

func TestServeRowUnbatched(t *testing.T) {
	row, err := serveRow{name: "unbatched", workers: 1, clients: 4, requests: 32}.batchRow()
	if err != nil {
		t.Fatal(err)
	}
	if row.Requests != 32 || row.Crossings != 32 || row.CrossingsPerOK != 1 {
		t.Fatalf("unbatched: %d signs, %d crossings (%.3f/sign); want 32, one crossing each",
			row.Requests, row.Crossings, row.CrossingsPerOK)
	}
	if row.P50Micros <= 0 || row.P95Micros < row.P50Micros {
		t.Fatalf("quantiles p50=%v p95=%v", row.P50Micros, row.P95Micros)
	}
}

// TestServeRowFixedKDurable: without group commit, each sealed batch is
// one crossing and one WAL fsync, and every sign carries a verified
// receipt.
func TestServeRowFixedKDurable(t *testing.T) {
	row, err := serveRow{name: "fixed K=4", workers: 4, clients: 8, requests: 64, durable: true, maxK: 4}.writePathRow()
	if err != nil {
		t.Fatal(err)
	}
	if row.Requests != 64 || row.ReceiptsOK != row.Requests {
		t.Fatalf("%d receipts verified for %d signs, want 64/64", row.ReceiptsOK, row.Requests)
	}
	if row.Fsyncs != row.Crossings || row.Crossings == 0 || row.Crossings >= 64 {
		t.Fatalf("fsyncs=%d crossings=%d; want equal and amortised below 64", row.Fsyncs, row.Crossings)
	}
}

func TestServeRowAdaptiveZipf(t *testing.T) {
	c := serveRow{name: "adaptive+dedup+group", workers: 4, clients: 16, requests: 128,
		durable: true, group: true, maxK: 32, minK: 2, dedup: true, zipf: true}
	r, st, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 128 || r.ReceiptsVerified != r.OK || r.CounterDups != 0 {
		t.Fatalf("ok=%d receipts=%d dups=%d; want 128 verified receipts and no dups", r.OK, r.ReceiptsVerified, r.CounterDups)
	}
	if st.Store == nil || st.Batch == nil {
		t.Fatal("durable batched row has no store or batch stats")
	}
}
