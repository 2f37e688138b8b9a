package eval

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/store"
)

// These run one serving row of each kind on a small budget: internal/load
// driving a real in-process stack (a snapshot pool behind a server on a
// loopback listener), the path servebench measures.

// serveStack boots a pool from pcfg, serves it with scfg and returns the
// server and its URL; cleanup drains it and closes the pool.
func serveStack(t *testing.T, pcfg pool.Config, scfg server.Config) (*server.Server, string) {
	t.Helper()
	p, err := pool.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Pool = p
	srv := server.New(scfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
	})
	return srv, ts.URL
}

// durableStack serves a 4-worker pool whose workers restore from a
// checkpoint store (a checkpoint after every sealed batch), with the
// batch settings of batch.
func durableStack(t *testing.T, clients int, batch server.Config, opts ...store.Option) (*server.Server, string) {
	t.Helper()
	cs, err := server.OpenCheckpointStore(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cs.Close(); err != nil {
			t.Errorf("checkpoint store close: %v", err)
		}
	})
	scfg := batch
	scfg.QueueDepth, scfg.BatchQueue = 4*clients, 4*clients
	scfg.RequestTimeout, scfg.BatchWindow = 60*time.Second, 2*time.Millisecond
	scfg.Checkpoints = cs
	return serveStack(t, pool.Config{Size: 4, Boot: server.Blueprint(42), Provision: server.RestoreProvision(cs)}, scfg)
}

func TestServeRowUnbatched(t *testing.T) {
	_, url := serveStack(t, pool.Config{Size: 1, Boot: server.Blueprint(42)},
		server.Config{QueueDepth: 64, RequestTimeout: 30 * time.Second})
	r, err := load.Run(context.Background(), load.Config{
		Targets: []string{url}, Clients: 4, Requests: 32, Endpoint: "notary",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 32 || r.Crossings != 32 || r.CrossingsPerOK != 1 {
		t.Fatalf("unbatched: %d signs, %d crossings (%.3f/sign); want 32, one crossing each",
			r.OK, r.Crossings, r.CrossingsPerOK)
	}
	if r.P50ms <= 0 || r.P95ms < r.P50ms {
		t.Fatalf("quantiles p50=%v p95=%v", r.P50ms, r.P95ms)
	}
}

// TestServeRowFixedKDurable: without group commit, each sealed batch is
// one crossing and one WAL fsync, and every sign carries a verified
// receipt.
func TestServeRowFixedKDurable(t *testing.T) {
	srv, url := durableStack(t, 8, server.Config{BatchMaxSize: 4})
	r, err := load.Run(context.Background(), load.Config{
		Targets: []string{url}, Clients: 8, Requests: 64, Endpoint: "notary", Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 64 || r.ReceiptsVerified != r.OK || r.CounterDups != 0 {
		t.Fatalf("ok=%d receipts=%d dups=%d; want 64 verified receipts and no dups", r.OK, r.ReceiptsVerified, r.CounterDups)
	}
	st := srv.Stats()
	if st.Store == nil || st.Batch == nil {
		t.Fatal("durable batched row has no store or batch stats")
	}
	if st.Store.Fsyncs != r.Crossings || r.Crossings == 0 || r.Crossings >= 64 {
		t.Fatalf("fsyncs=%d crossings=%d; want equal and amortised below 64", st.Store.Fsyncs, r.Crossings)
	}
}

// TestServeRowAdaptiveZipf runs the whole adaptive write path (floating
// K, dedup, group commit) on a Zipf corpus: every sign still carries a
// verified receipt and no counter repeats.
func TestServeRowAdaptiveZipf(t *testing.T) {
	srv, url := durableStack(t, 16,
		server.Config{BatchMaxSize: 32, BatchMinSize: 2, BatchDedup: true}, store.WithGroupCommit())
	r, err := load.Run(context.Background(), load.Config{
		Targets: []string{url}, Clients: 16, Requests: 128, Endpoint: "notary", Verify: true,
		Zipf: 1.2, ZipfDocs: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 128 || r.ReceiptsVerified != r.OK || r.CounterDups != 0 {
		t.Fatalf("ok=%d receipts=%d dups=%d; want 128 verified receipts and no dups", r.OK, r.ReceiptsVerified, r.CounterDups)
	}
	if st := srv.Stats(); st.Store == nil || st.Batch == nil {
		t.Fatal("durable batched row has no store or batch stats")
	}
}
