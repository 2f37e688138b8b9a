package batch

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// Errors returned by Submit.
var (
	// ErrClosed: the aggregator has been drained and accepts no new work.
	ErrClosed = errors.New("batch: aggregator closed")
	// ErrSaturated: too many requests are already queued or in flight;
	// the caller should shed (429 + Retry-After).
	ErrSaturated = errors.New("batch: queue saturated")
)

// Request is one queued sign request: the client's document digest plus
// the identity material bound into the leaf.
type Request struct {
	DocDigest [8]uint32 // SHA-256 of the raw document bytes
	Tenant    string
	Nonce     [NonceSize]byte
	// Coalescable marks a request whose nonce the server minted (not
	// client-pinned): with Config.Dedup it may fold onto an already-open
	// leaf for the same (DocDigest, Tenant), adopting that leaf's nonce.
	// Any request — pinned or not — can open a leaf others coalesce onto.
	Coalescable bool
}

// SignedRoot is the enclave's signature over one sealed batch: the guest
// advanced the counter once and attested RootDigest(Root, Counter).
type SignedRoot struct {
	Root     [8]uint32
	Counter  uint32
	Digest   [8]uint32 // RootDigest(Root, Counter), recomputed Go-side
	MAC      [8]uint32
	Worker   int
	Epoch    int
	Restores int
}

// Receipt is what one client gets back: the shared batch signature plus
// this request's position proof. Nonce is the nonce actually bound into
// the leaf — the caller's own unless the request coalesced onto an
// earlier identical one, in which case it is that leaf's nonce (fold it
// into the proof so the receipt verifies offline). Coalesced counts the
// requests sharing the leaf (1 = not deduplicated).
type Receipt struct {
	SignedRoot
	Leaf      [8]uint32
	LeafIndex int
	BatchSize int
	Path      [][8]uint32
	Nonce     [NonceSize]byte
	Coalesced int
}

// SignFunc performs the single enclave entry for a sealed batch. It is
// called outside the aggregator lock, at most cfg.MaxConcurrent at a time
// implicitly (one per sealed batch; pool capacity bounds real concurrency).
type SignFunc func(ctx context.Context, root [8]uint32) (SignedRoot, error)

// Config parameterises an Aggregator.
type Config struct {
	// MaxBatch is K: a batch seals as soon as it holds K leaves.
	MaxBatch int
	// MinBatch, when in (0, MaxBatch), turns on adaptive sizing: the
	// close threshold starts at MinBatch and is retuned between MinBatch
	// and MaxBatch after every sealed batch from EWMAs of the observed
	// fill times and per-batch arrival counts, so light load seals small
	// batches fast (latency) and heavy load grows K toward the
	// crossing-cost optimum (throughput). 0 keeps K fixed at MaxBatch.
	MinBatch int
	// Dedup coalesces requests with identical (DocDigest, Tenant) inside
	// one open batch onto a single Merkle leaf: every coalesced caller
	// still gets its own offline-verifiable receipt (sharing the leaf's
	// nonce), but the tree — and the enclave crossing it costs — stops
	// growing with hot-document skew. Only Coalescable requests fold onto
	// an existing leaf; client-pinned nonces always get their own.
	Dedup bool
	// Window is T: a non-empty batch seals at most this long after its
	// first request arrived, even if it is short of K.
	Window time.Duration
	// MaxQueue bounds requests admitted but not yet signed (across the
	// open batch and all in-flight seals). Submit returns ErrSaturated
	// beyond it. Defaults to 4*MaxBatch.
	MaxQueue int
	// SignTimeout bounds one enclave sign call (default 5s). Sealing uses
	// its own context so one client's cancellation cannot abort a batch
	// that other clients are waiting on.
	SignTimeout time.Duration
	// Sign performs the enclave entry.
	Sign SignFunc
}

// Close reasons for sealed batches.
const (
	CloseFull   = "full"
	CloseWindow = "window"
	CloseDrain  = "drain"
)

type waiter struct {
	req Request
	ch  chan result // buffered 1; exactly one send per waiter
}

type result struct {
	receipt Receipt
	err     error
}

// leafGroup is one Merkle leaf of the open batch and the waiters it
// answers — usually one, more when identical requests coalesced.
type leafGroup struct {
	req     Request
	waiters []*waiter
}

// leafKey is the dedup identity: H(doc) and tenant, NOT the nonce —
// coalescing is exactly "same document under the same tenant label".
type leafKey struct {
	doc    [8]uint32
	tenant string
}

// Aggregator collects sign requests into batches, seals each batch into a
// Merkle tree, obtains one enclave signature per batch, and distributes
// per-request receipts. Safe for concurrent use.
type Aggregator struct {
	cfg      Config
	adaptive bool

	mu        sync.Mutex
	pending   []*leafGroup    // current open batch, one entry per leaf
	index     map[leafKey]int // dedup: leaf identity → pending index
	opened    time.Time       // when pending[0] arrived
	timer     *time.Timer     // window timer for the open batch
	gen       uint64          // open-batch generation, guards stale timers
	queued    int             // admitted but not yet signed (open + sealing)
	closed    bool
	k         int     // current close threshold (leaves per batch)
	sealing   int     // batches handed to Sign and not yet returned
	ewmaFill  float64 // EWMA of batch fill time, seconds
	ewmaCount float64 // EWMA of per-batch arrival count
	windowRun int     // consecutive window-closed seals (shrink evidence)

	stats statsInner
	fill  *obs.Histogram // first-enqueue → seal latency
}

type statsInner struct {
	batchesFull   uint64
	batchesWindow uint64
	batchesDrain  uint64
	signed        uint64 // receipts delivered across all batches
	signFailures  uint64
	saturated     uint64
	dedup         uint64 // requests coalesced onto an existing leaf
	sizeSum       uint64
	maxSize       int
	lastSize      int
}

// Stats is the JSON-facing snapshot. Its tags declare the /metrics
// families and the fleet merge (internal/obs).
type Stats struct {
	Batches        uint64  `json:"batches"`
	BatchesFull    uint64  `json:"batches_full" prom:"komodo_batch_batches_total,close=full" help:"Sealed batches by close reason."`
	BatchesWindow  uint64  `json:"batches_window" prom:"komodo_batch_batches_total,close=window"`
	BatchesDrain   uint64  `json:"batches_drain" prom:"komodo_batch_batches_total,close=drain"`
	Signed         uint64  `json:"signed_requests" prom:"komodo_batch_signed_total" help:"Sign requests answered from a sealed batch."`
	SignFailures   uint64  `json:"sign_failures" prom:"komodo_batch_sign_failures_total" help:"Batches whose single enclave entry failed (every waiter got a 5xx)."`
	Saturated      uint64  `json:"saturated" prom:"komodo_batch_saturated_total" help:"Sign requests rejected because the batch queue was full."`
	CrossingsSaved uint64  `json:"crossings_saved" prom:"komodo_batch_crossings_saved_total" help:"Enclave crossings avoided: signed requests minus batch signatures."`
	SizeSum        uint64  `json:"size_sum"`
	MeanSize       float64 `json:"mean_size" prom:"komodo_batch_size_mean" help:"Mean sealed-batch size." merge:"-"`
	MaxSize        int     `json:"max_size" prom:"komodo_batch_size_max" help:"Largest batch sealed so far." merge:"max"`
	LastSize       int     `json:"last_size" merge:"last"`
	Pending        int     `json:"pending" prom:"komodo_batch_pending" help:"Requests admitted to the batcher but not yet signed."`
	// Fill quantiles are not mergeable without the raw histograms; a
	// fleet view keeps the slowest node's.
	FillP50us float64 `json:"fill_p50_us" merge:"max"`
	FillP95us float64 `json:"fill_p95_us" merge:"max"`
	// KCurrent is the live close threshold (equals MaxBatch when sizing
	// is fixed); KMin/KMax are the adaptive bounds (0 when fixed). Dedup
	// counts sign requests coalesced onto an already-pending identical
	// leaf instead of widening the tree. A fleet view keeps the widest K
	// range.
	KCurrent int    `json:"k_current" prom:"komodo_batch_k_current" help:"Current close threshold K (fixed MaxBatch, or the adaptive controller's pick)." merge:"max"`
	KMin     int    `json:"k_min,omitempty" merge:"min"`
	KMax     int    `json:"k_max,omitempty" merge:"max"`
	Dedup    uint64 `json:"dedup_total" prom:"komodo_batch_dedup_total" help:"Sign requests coalesced onto another request's leaf (identical doc and tenant)."`
}

// New builds an Aggregator. cfg.Sign is required; MaxBatch defaults to 16,
// Window to 2ms, MaxQueue to 4*MaxBatch, SignTimeout to 5s.
func New(cfg Config) *Aggregator {
	if cfg.Sign == nil {
		panic("batch: Config.Sign is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxBatch
	}
	if cfg.SignTimeout <= 0 {
		cfg.SignTimeout = 5 * time.Second
	}
	a := &Aggregator{cfg: cfg, fill: obs.NewHistogram()}
	a.adaptive = cfg.MinBatch > 0 && cfg.MinBatch < cfg.MaxBatch
	if a.adaptive {
		a.k = cfg.MinBatch // start small; load grows it
	} else {
		a.k = cfg.MaxBatch
	}
	return a
}

// Submit queues one request and blocks until its receipt is ready, the
// context is cancelled, or the aggregator reports saturation/closure.
// A context cancellation abandons only this caller's receipt; the batch
// (and the counter advance) proceeds for everyone else.
func (a *Aggregator) Submit(ctx context.Context, req Request) (Receipt, error) {
	w := &waiter{req: req, ch: make(chan result, 1)}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return Receipt{}, ErrClosed
	}
	if a.queued >= a.cfg.MaxQueue {
		a.stats.saturated++
		a.mu.Unlock()
		return Receipt{}, ErrSaturated
	}
	a.queued++
	if len(a.pending) == 0 {
		a.opened = time.Now()
		gen := a.gen
		a.timer = time.AfterFunc(a.cfg.Window, func() { a.sealOnTimer(gen) })
	}
	if a.cfg.Dedup && req.Coalescable {
		if i, ok := a.index[leafKey{req.DocDigest, req.Tenant}]; ok {
			// Identical leaf already pending: ride it instead of widening
			// the tree. The leaf count is unchanged, so no close check.
			a.pending[i].waiters = append(a.pending[i].waiters, w)
			a.stats.dedup++
			a.mu.Unlock()
			return a.wait(ctx, w)
		}
	}
	a.pending = append(a.pending, &leafGroup{req: req, waiters: []*waiter{w}})
	if a.cfg.Dedup {
		if a.index == nil {
			a.index = make(map[leafKey]int)
		}
		a.index[leafKey{req.DocDigest, req.Tenant}] = len(a.pending) - 1
	}
	if len(a.pending) >= a.k {
		batch, opened := a.takeLocked()
		a.sealing++
		a.mu.Unlock()
		go a.seal(batch, opened, CloseFull)
	} else {
		a.mu.Unlock()
	}
	return a.wait(ctx, w)
}

func (a *Aggregator) wait(ctx context.Context, w *waiter) (Receipt, error) {
	select {
	case r := <-w.ch:
		return r.receipt, r.err
	case <-ctx.Done():
		return Receipt{}, ctx.Err()
	}
}

// takeLocked detaches the open batch (caller holds a.mu) and stops its
// window timer.
func (a *Aggregator) takeLocked() ([]*leafGroup, time.Time) {
	batch := a.pending
	opened := a.opened
	a.pending = nil
	a.index = nil
	a.gen++
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	return batch, opened
}

// sealOnTimer seals the open batch when its window expires. gen guards
// against the race where the batch already sealed (full) and a new batch
// opened before the timer fired.
func (a *Aggregator) sealOnTimer(gen uint64) {
	a.mu.Lock()
	if a.gen != gen || len(a.pending) == 0 {
		a.mu.Unlock()
		return
	}
	// Sign-side group commit: a below-K batch whose window expired while
	// a sign is still in flight would only queue behind it at the pool —
	// keep it open instead, so late arrivals (and dedup riders) coalesce
	// into it, and seal it the moment the signer frees up. The re-armed
	// timer is the fallback if no seal completes.
	if a.sealing > 0 && len(a.pending) < a.k {
		a.timer = time.AfterFunc(a.cfg.Window, func() { a.sealOnTimer(gen) })
		a.mu.Unlock()
		return
	}
	batch, opened := a.takeLocked()
	a.sealing++
	a.mu.Unlock()
	a.seal(batch, opened, CloseWindow)
}

// seal builds the Merkle tree over one detached batch, performs the single
// enclave sign, and distributes receipts — every waiter of a coalesced
// leaf gets its own, sharing the leaf's index, path and nonce.
func (a *Aggregator) seal(batch []*leafGroup, opened time.Time, reason string) {
	fillDur := time.Since(opened)
	a.fill.Observe(fillDur)

	leaves := make([][8]uint32, len(batch))
	arrivals := 0
	for i, g := range batch {
		leaves[i] = LeafHash(g.req.DocDigest, g.req.Tenant, g.req.Nonce[:])
		arrivals += len(g.waiters)
	}
	root := Root(leaves)

	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.SignTimeout)
	signed, err := a.cfg.Sign(ctx, root)
	cancel()

	a.mu.Lock()
	a.queued -= arrivals
	switch reason {
	case CloseFull:
		a.stats.batchesFull++
	case CloseWindow:
		a.stats.batchesWindow++
	default:
		a.stats.batchesDrain++
	}
	// Backlog means K was the binding constraint: the batch closed on
	// count and more work was already waiting behind it.
	backlog := reason == CloseFull && a.queued > 0
	a.retuneLocked(arrivals, fillDur, reason, backlog)
	if err != nil {
		a.stats.signFailures++
	} else {
		a.stats.signed += uint64(arrivals)
		a.stats.sizeSum += uint64(len(batch))
		a.stats.lastSize = len(batch)
		if len(batch) > a.stats.maxSize {
			a.stats.maxSize = len(batch)
		}
	}
	// Hand off a window-expired batch that was held open while this sign
	// was in flight (see sealOnTimer): the signer is free now.
	a.sealing--
	var deferred []*leafGroup
	var deferredOpened time.Time
	if a.sealing == 0 && !a.closed && len(a.pending) > 0 &&
		len(a.pending) < a.k && time.Since(a.opened) >= a.cfg.Window {
		deferred, deferredOpened = a.takeLocked()
		a.sealing++
	}
	a.mu.Unlock()
	if deferred != nil {
		go a.seal(deferred, deferredOpened, CloseWindow)
	}

	if err != nil {
		for _, g := range batch {
			for _, w := range g.waiters {
				w.ch <- result{err: err}
			}
		}
		return
	}
	for i, g := range batch {
		path := Path(leaves, i)
		for _, w := range g.waiters {
			w.ch <- result{receipt: Receipt{
				SignedRoot: signed,
				Leaf:       leaves[i],
				LeafIndex:  i,
				BatchSize:  len(batch),
				Path:       path,
				Nonce:      g.req.Nonce,
				Coalesced:  len(g.waiters),
			}}
		}
	}
}

// retuneLocked is the dynamic-K controller (caller holds a.mu). The EWMA
// of batch fill time and per-batch arrival count estimates the arrivals
// one window would collect at the smoothed rate; K then moves
// asymmetrically on that evidence, clamped to [MinBatch, MaxBatch]:
//
//   - A batch that closed on count with more work already queued behind
//     it grows K multiplicatively — the backlog proves K, not the
//     offered load, was the binding constraint (the rate estimate alone
//     equilibrates early under closed-loop load, where each seal wakes
//     exactly K clients and fill time tracks the window as K grows).
//   - Shrinking needs sustained evidence: one step down per three
//     consecutive window-closed seals that each caught under half of K.
//     Bursty arrivals leave occasional gap-straddling window closes
//     between full batches — near-full ones are healthy, and reacting
//     to every one would collapse K during every gap.
//   - Anything else (a full close that drained the queue, a drain close)
//     holds K.
func (a *Aggregator) retuneLocked(arrivals int, fillDur time.Duration, reason string, backlog bool) {
	if !a.adaptive {
		return
	}
	sec := fillDur.Seconds()
	if sec < 50e-6 {
		sec = 50e-6 // floor: a burst that fills instantly is not an infinite rate
	}
	const alpha = 0.3
	if a.ewmaFill == 0 {
		a.ewmaFill, a.ewmaCount = sec, float64(arrivals)
	} else {
		a.ewmaFill = alpha*sec + (1-alpha)*a.ewmaFill
		a.ewmaCount = alpha*float64(arrivals) + (1-alpha)*a.ewmaCount
	}
	rate := a.ewmaCount / a.ewmaFill // smoothed arrivals per second
	k := int(rate*a.cfg.Window.Seconds() + 0.5)
	switch {
	case backlog:
		a.windowRun = 0
		if grown := a.k + 1 + a.k/2; k < grown {
			k = grown
		}
	case reason == CloseWindow && arrivals*2 < a.k:
		a.windowRun++
		if a.windowRun >= 3 {
			a.windowRun = 0
			if floor := a.k - 1 - a.k/4; k < floor {
				k = floor
			}
		} else if k < a.k {
			k = a.k
		}
	default:
		a.windowRun = 0
		if k < a.k {
			k = a.k
		}
	}
	if k < a.cfg.MinBatch {
		k = a.cfg.MinBatch
	}
	if k > a.cfg.MaxBatch {
		k = a.cfg.MaxBatch
	}
	a.k = k
}

// Close drains the aggregator: the open batch (if any) seals immediately
// with reason "drain", and all later Submits fail with ErrClosed. It does
// not wait for in-flight seals.
func (a *Aggregator) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	if len(a.pending) == 0 {
		a.mu.Unlock()
		return
	}
	batch, opened := a.takeLocked()
	a.sealing++
	a.mu.Unlock()
	a.seal(batch, opened, CloseDrain)
}

// Pending reports requests admitted but not yet signed.
func (a *Aggregator) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// MaxQueue reports the saturation limit Submit rejects beyond — the
// denominator for queue-pressure load shedding.
func (a *Aggregator) MaxQueue() int { return a.cfg.MaxQueue }

// Pressure reports the batcher's queue fullness for load shedding. With
// fixed sizing this is exactly (Pending, MaxQueue); with adaptive sizing
// the denominator tracks the live threshold (4×K, capped at MaxQueue),
// so admission control sheds relative to what the batcher is currently
// willing to buffer, not the static worst case.
func (a *Aggregator) Pressure() (int, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	capacity := a.cfg.MaxQueue
	if a.adaptive {
		if c := 4 * a.k; c < capacity {
			capacity = c
		}
	}
	return a.queued, capacity
}

// Stats snapshots the aggregator's counters.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	st := a.stats
	pending := a.queued
	k := a.k
	a.mu.Unlock()
	batches := st.batchesFull + st.batchesWindow + st.batchesDrain
	out := Stats{
		Batches:       batches,
		BatchesFull:   st.batchesFull,
		BatchesWindow: st.batchesWindow,
		BatchesDrain:  st.batchesDrain,
		Signed:        st.signed,
		SignFailures:  st.signFailures,
		Saturated:     st.saturated,
		SizeSum:       st.sizeSum,
		MaxSize:       st.maxSize,
		LastSize:      st.lastSize,
		Pending:       pending,
		KCurrent:      k,
		Dedup:         st.dedup,
	}
	if a.adaptive {
		out.KMin, out.KMax = a.cfg.MinBatch, a.cfg.MaxBatch
	}
	if signedBatches := batches - st.signFailures; st.signed > signedBatches {
		out.CrossingsSaved = st.signed - signedBatches
	}
	if batches > 0 {
		out.MeanSize = float64(st.sizeSum) / float64(batches)
	}
	snap := a.fill.Snapshot()
	out.FillP50us = float64(snap.Quantile(0.50)) / 1e3
	out.FillP95us = float64(snap.Quantile(0.95)) / 1e3
	return out
}

// FillHist exposes the fill-latency histogram for /metrics export.
func (a *Aggregator) FillHist() *obs.Histogram { return a.fill }
