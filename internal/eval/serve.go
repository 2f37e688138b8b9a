package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/load"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/store"
)

// BatchRow is one configuration of the batched-signing A/B: the same
// closed-loop notary load against the same one-worker pool, unbatched
// versus aggregated into K-sized Merkle batches (docs/BATCHING.md). The
// headline column is CrossingsPerOK — enclave world crossings per signed
// request — which batching amortises towards 1/K.
type BatchRow struct {
	Config         string  `json:"config"`
	BatchSize      int     `json:"batch_size"`
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests"`
	Crossings      uint64  `json:"enclave_crossings"`
	CrossingsPerOK float64 `json:"crossings_per_signed_request"`
	Throughput     float64 `json:"requests_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P95Micros      float64 `json:"p95_us"`
	MeanBatch      float64 `json:"mean_batch_size"`
}

// WritePathRow is one cell of the adaptive write-path sweep: the same
// closed-loop notary load with durable counters (a checkpoint per sign)
// against one write-path configuration. The headline columns are
// CrossingsPerOK (enclave crossings per signed request, amortised by
// batching and further by dedup under skew) and FsyncsPerOK (WAL fsyncs
// per signed request, amortised by batching and group commit). Every
// batch receipt is verified offline in-run; a row only lands if all of
// them check out.
type WritePathRow struct {
	Config         string  `json:"config"`
	Clients        int     `json:"clients"`
	Skew           string  `json:"skew"` // "uniform" or "zipf"
	Requests       int     `json:"requests"`
	Crossings      uint64  `json:"enclave_crossings"`
	CrossingsPerOK float64 `json:"crossings_per_signed_request"`
	Fsyncs         uint64  `json:"fsyncs"`
	FsyncsPerOK    float64 `json:"fsyncs_per_signed_request"`
	Dedup          uint64  `json:"dedup_total"`
	KFinal         int     `json:"k_final"`
	MeanBatch      float64 `json:"mean_batch_size"`
	MeanGroup      float64 `json:"mean_group_size"`
	Throughput     float64 `json:"requests_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P95Micros      float64 `json:"p95_us"`
	ReceiptsOK     int     `json:"receipts_verified"`
}

// serveRow is one row of the serving tables: an in-process stack and the
// closed-loop notary load driven at it.
type serveRow struct {
	name     string
	workers  int
	clients  int
	requests int  // raised to at least 8 per client
	durable  bool // durable counters, checkpointed after every sign
	group    bool // WAL group commit (durable rows)
	maxK     int  // BatchMaxSize (0 = unbatched)
	minK     int  // BatchMinSize (0 = fixed K)
	dedup    bool // BatchDedup
	zipf     bool // Zipf-1.2 documents from a 256-document corpus
}

// run boots the row's stack, drives its signs at it with every receipt
// verified, and fails on any rejection or client error, any duplicated
// counter, any batched sign without a verified receipt, or a crossing
// count that could not be measured. st is the server's view after the
// load.
func (c serveRow) run() (r load.Result, st server.StatsResponse, err error) {
	pcfg := pool.Config{Size: c.workers, Boot: server.Blueprint(42)}
	scfg := server.Config{
		QueueDepth:     4 * c.clients,
		RequestTimeout: 60 * time.Second,
		BatchMaxSize:   c.maxK,
		BatchMinSize:   c.minK,
		BatchDedup:     c.dedup,
		BatchWindow:    2 * time.Millisecond,
		BatchQueue:     4 * c.clients,
	}
	if c.durable {
		dir, derr := os.MkdirTemp("", "komodo-serve-row-*")
		if derr != nil {
			return r, st, derr
		}
		defer os.RemoveAll(dir)
		var opts []store.Option
		if c.group {
			opts = append(opts, store.WithGroupCommit())
		}
		cs, cerr := server.OpenCheckpointStore(dir, opts...)
		if cerr != nil {
			return r, st, cerr
		}
		defer func() { err = errors.Join(err, cs.Close()) }()
		pcfg.Provision = server.RestoreProvision(cs)
		scfg.Checkpoints = cs
	}
	stack, err := load.Start(pcfg, scfg)
	if err != nil {
		return r, st, err
	}
	defer func() { err = errors.Join(err, stack.Close()) }()

	lc := load.Config{
		Targets:  []string{stack.URL},
		Clients:  c.clients,
		Requests: max(c.requests, 8*c.clients),
		Endpoint: "notary",
		Verify:   true,
	}
	if c.zipf {
		lc.Zipf, lc.ZipfDocs = 1.2, 256
	}
	if r, err = load.Run(context.Background(), lc); err != nil {
		return r, st, err
	}
	st = stack.Server.Stats()
	batched := 0
	if c.maxK > 0 {
		batched = r.OK
	}
	switch {
	case r.Rejected+r.Unavail+r.Errors > 0:
		err = fmt.Errorf("%d rejected (429), %d unavailable (503), %d client errors", r.Rejected, r.Unavail, r.Errors)
	case r.CounterDups > 0:
		err = fmt.Errorf("%d duplicated counters", r.CounterDups)
	case r.ReceiptsVerified != batched:
		err = fmt.Errorf("%d receipts verified for %d batched signs", r.ReceiptsVerified, batched)
	case r.Crossings == 0:
		err = fmt.Errorf("enclave crossings not measured")
	}
	return r, st, err
}

// micros converts a load.Result quantile (whole microseconds, in ms) to µs.
func micros(ms float64) float64 { return math.Round(ms * 1000) }

func (c serveRow) batchRow() (BatchRow, error) {
	r, st, err := c.run()
	row := BatchRow{
		Config:         c.name,
		BatchSize:      c.maxK,
		Clients:        c.clients,
		Requests:       r.OK,
		Crossings:      r.Crossings,
		CrossingsPerOK: r.CrossingsPerOK,
		Throughput:     r.Throughput,
		P50Micros:      micros(r.P50ms),
		P95Micros:      micros(r.P95ms),
	}
	if st.Batch != nil {
		row.MeanBatch = st.Batch.MeanSize
	}
	return row, err
}

func (c serveRow) writePathRow() (WritePathRow, error) {
	r, st, err := c.run()
	row := WritePathRow{
		Config:         c.name,
		Clients:        c.clients,
		Skew:           "uniform",
		Requests:       r.OK,
		Crossings:      r.Crossings,
		CrossingsPerOK: r.CrossingsPerOK,
		Throughput:     r.Throughput,
		P50Micros:      micros(r.P50ms),
		P95Micros:      micros(r.P95ms),
		ReceiptsOK:     r.ReceiptsVerified,
	}
	if c.zipf {
		row.Skew = "zipf"
	}
	if st.Batch != nil {
		row.KFinal = st.Batch.KCurrent
		row.MeanBatch = st.Batch.MeanSize
		row.Dedup = st.Batch.Dedup
	}
	if st.Store != nil && r.OK > 0 {
		row.Fsyncs = st.Store.Fsyncs
		row.FsyncsPerOK = float64(st.Store.Fsyncs) / float64(r.OK)
		row.MeanGroup = st.Store.MeanGroup()
	}
	return row, err
}

// BatchAB runs the batched-signing comparison: one unbatched baseline
// plus one row per requested batch size, same request budget and client
// count throughout, against a one-worker in-memory pool (the
// EXPERIMENTS.md batching section and the BENCH_8.json baseline).
func BatchAB(reqs, clients int, sizes []int) ([]BatchRow, error) {
	rows := make([]BatchRow, 0, len(sizes)+1)
	for _, k := range append([]int{0}, sizes...) {
		c := serveRow{name: "unbatched", workers: 1, clients: clients, requests: reqs, maxK: k}
		if k > 0 {
			c.name = fmt.Sprintf("batch K=%d", k)
		}
		row, err := c.batchRow()
		if err != nil {
			return nil, fmt.Errorf("batch A/B (K=%d): %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePathSweep runs the adaptive write-path comparison behind
// BENCH_10.json (docs/PERFORMANCE.md §Write path) on a four-worker pool
// (so concurrent batch seals overlap on the WAL and group commit has
// something to coalesce): unbatched, three fixed batch sizes, and the
// full adaptive stack (floating K + dedup + group commit), each at a
// light (2-client) and heavy (64-client) load level with durable
// counters checkpointed after every sign, plus a Zipf-skewed heavy cell
// for fixed K=16 versus the adaptive stack so cross-request dedup has
// repeats to coalesce.
func WritePathSweep(reqs int) ([]WritePathRow, error) {
	configs := []serveRow{
		{name: "unbatched"},
		{name: "unbatched+group", group: true},
		{name: "fixed K=4", maxK: 4},
		{name: "fixed K=16", maxK: 16},
		{name: "fixed K=32", maxK: 32},
		{name: "adaptive+dedup+group", maxK: 32, minK: 2, dedup: true, group: true},
	}
	var cells []serveRow
	for _, clients := range []int{2, 64} {
		for _, c := range configs {
			c.clients = clients
			cells = append(cells, c)
		}
	}
	// Skewed heavy load: repeats within the batch window are what dedup
	// coalesces, so the comparison that matters is equal-load fixed K
	// versus the adaptive stack.
	for _, c := range []serveRow{configs[3], configs[5]} {
		c.clients, c.zipf = 64, true
		cells = append(cells, c)
	}
	rows := make([]WritePathRow, 0, len(cells))
	for _, c := range cells {
		c.workers, c.requests, c.durable = 4, reqs, true
		row, err := c.writePathRow()
		if err != nil {
			return nil, fmt.Errorf("writepath (%s, %d clients, %s): %w", c.name, c.clients, row.Skew, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
