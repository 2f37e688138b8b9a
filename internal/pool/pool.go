// Package pool provides a warm pool of simulated Komodo boards for the
// serving layer. Booting a board — secure-world initialisation, enclave
// image construction (page-by-page measurement through the monitor's SMC
// sequence), quoting-enclave provisioning — is the expensive part of
// serving a request. The pool pays it once per worker: each worker boots,
// prepares its enclaves, and captures a golden Snapshot; a request then
// checks the worker out, runs, and the pool rewinds the board to the
// golden snapshot on release (a fast clone) instead of re-booting.
//
// The restore-on-release discipline is also the isolation story: no
// register, page, TLB or RNG state survives from one request to the next,
// so a request cannot observe or influence its predecessor. Two extra
// defences back it up: a per-worker reuse limit (after MaxReuse checkouts
// the worker is retired and freshly booted), and an optional health check
// run after every restore (a worker that fails it is retired too). A
// request that errors mid-flight releases with Fail, which always
// retires: a board in an unknown state is never returned to the pool.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/komodo"
)

// BootFunc boots one worker's platform: a fresh System plus an opaque
// application state (enclave handles etc.) that request handlers retrieve
// with Worker.State. It must return the system at a quiescent point — the
// pool captures the golden snapshot immediately after it returns, and
// every restore rewinds to exactly that state.
type BootFunc func() (*komodo.System, any, error)

// Config configures New.
type Config struct {
	// Size is the number of workers (default 4).
	Size int
	// Boot boots one worker. Required.
	Boot BootFunc
	// MaxReuse retires a worker after this many checkouts since its last
	// boot, re-booting it fresh. 0 means unlimited.
	MaxReuse int
	// BootRetries is how many times a failed boot is retried before the
	// worker slot is abandoned (default 3).
	BootRetries int
	// HealthCheck, if set, runs after every restore; an error retires the
	// worker. It sees the restored system and the worker's state.
	HealthCheck func(sys *komodo.System, state any) error
	// Provision, if set, runs after every successful Boot and before the
	// golden snapshot is captured — so whatever it does (e.g. restoring
	// durable enclave checkpoints from a state store) becomes part of the
	// state every subsequent restore rewinds to. An error counts as a
	// boot failure and is retried like one.
	Provision func(workerID int, sys *komodo.System, state any) error
}

// Outcome tells Put what to do with the returned worker.
type Outcome int

const (
	// OK releases a healthy worker; the pool restores it to its golden
	// snapshot. Use for stateless requests: nothing from this request
	// survives.
	OK Outcome = iota
	// Keep releases the worker without re-provisioning: enclave state
	// (e.g. the notary's monotonic counter) persists to the next
	// checkout. The reuse limit still applies.
	Keep
	// Fail retires the worker: the board is discarded and freshly
	// booted. Use whenever a request errored mid-flight.
	Fail
)

// ErrClosed is returned by Get after Close.
var ErrClosed = errors.New("pool: closed")

// Worker is one checked-out board.
type Worker struct {
	id     int
	sys    *komodo.System
	state  any
	golden *komodo.Snapshot

	uses  int // checkouts since last boot
	epoch int // restores since last boot
	boots int // times booted
}

// ID identifies the worker slot (stable across re-boots).
func (w *Worker) ID() int { return w.id }

// System is the checked-out board. Valid only between Get and Put.
func (w *Worker) System() *komodo.System { return w.sys }

// State is the opaque application state returned by the BootFunc.
func (w *Worker) State() any { return w.state }

// Epoch counts restores since the worker last booted. State kept across
// Keep releases is only comparable within one (ID, boot, epoch) window.
func (w *Worker) Epoch() int { return w.epoch }

// Rebase makes the worker's current state its restore point and resets
// the epoch counter. Call while the worker is checked out — e.g. after
// sealing or restoring an enclave checkpoint — so OK releases rewind to
// the rebased state rather than the boot-time golden. The golden snapshot
// is updated in place with only the pages dirtied since it was last
// restored or rebased; that is safe because it never leaves the Worker.
// Only when something else has re-baselined the board's memory since
// does Rebase fall back to a full snapshot.
func (w *Worker) Rebase() {
	if !w.sys.Rebase(w.golden) {
		w.golden = w.sys.Snapshot()
	}
	w.epoch = 0
}

// Stats is a point-in-time view of pool activity.
type Stats struct {
	Size        int    `json:"size"`                                                                     // configured worker slots
	Live        int    `json:"live" prom:"komodo_pool_workers,state=live" help:"Worker slots by state."` // slots with a working board
	Dead        int    `json:"dead" prom:"komodo_pool_workers,state=dead"`                               // slots abandoned after boot failures
	Available   int    `json:"available" prom:"komodo_pool_workers,state=available"`                     // idle workers ready for Get
	InFlight    int    `json:"in_flight" prom:"komodo_pool_workers,state=in_flight"`                     // checked-out workers
	Gets        uint64 `json:"gets" prom:"komodo_pool_gets_total" help:"Successful worker checkouts."`
	Puts        uint64 `json:"puts" prom:"komodo_pool_puts_total" help:"Worker releases."`
	Boots       uint64 `json:"boots" prom:"komodo_pool_boots_total" help:"Full board boots, including the initial ones."`
	Restores    uint64 `json:"restores" prom:"komodo_pool_restores_total" help:"Golden-snapshot restores."`
	Retires     uint64 `json:"retires" prom:"komodo_pool_retires_total" help:"Workers retired (Fail, health check, reuse limit)."`
	HealthFails uint64 `json:"health_fails" prom:"komodo_pool_health_fails_total" help:"Post-restore health-check failures."`
	BootNS      uint64 `json:"boot_ns" prom:"komodo_pool_boot_seconds_total" help:"Cumulative wall time booting boards."`
	RestoreNS   uint64 `json:"restore_ns" prom:"komodo_pool_restore_seconds_total" help:"Cumulative wall time restoring snapshots."`

	// Delta-restore accounting (internal/mem dirty-page tracking): how
	// many of the golden-snapshot restores were deltas, and how many
	// words/pages they actually copied. RestoreWordsFull is what the
	// same restores would have cost without dirty tracking (restores ×
	// full board size) — the words-copied-per-restore win in one ratio.
	DeltaRestores    uint64 `json:"delta_restores" prom:"komodo_pool_delta_restores_total" help:"Golden-snapshot restores served by the dirty-page delta path."`
	RestoreWords     uint64 `json:"restore_words" prom:"komodo_pool_restore_words_total,kind=copied" help:"Memory words golden-snapshot restores actually copied (delta restore), vs. what full copies of the same restores would have moved."`
	RestorePages     uint64 `json:"restore_pages"`
	RestoreWordsFull uint64 `json:"restore_words_full" prom:"komodo_pool_restore_words_total,kind=full_equivalent"`
}

// Pool is a warm pool of booted boards.
type Pool struct {
	cfg  Config
	free chan *Worker

	mu       sync.Mutex
	closed   bool
	live     int
	dead     int
	inFlight int
	stats    Stats
}

// New boots cfg.Size workers and returns the ready pool. Boot failures at
// construction are fatal: a pool that cannot boot one worker is
// misconfigured.
func New(cfg Config) (*Pool, error) {
	if cfg.Boot == nil {
		return nil, errors.New("pool: Config.Boot is required")
	}
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	if cfg.BootRetries <= 0 {
		cfg.BootRetries = 3
	}
	p := &Pool{cfg: cfg, free: make(chan *Worker, cfg.Size)}
	for i := 0; i < cfg.Size; i++ {
		w := &Worker{id: i}
		if err := p.boot(w); err != nil {
			return nil, fmt.Errorf("pool: booting worker %d: %w", i, err)
		}
		p.live++
		p.free <- w
	}
	return p, nil
}

// boot (re)boots a worker slot and captures its golden snapshot.
func (p *Pool) boot(w *Worker) error {
	var lastErr error
	for attempt := 0; attempt < p.cfg.BootRetries; attempt++ {
		start := time.Now()
		sys, state, err := p.cfg.Boot()
		if err != nil {
			lastErr = err
			continue
		}
		if p.cfg.Provision != nil {
			if err := p.cfg.Provision(w.id, sys, state); err != nil {
				lastErr = fmt.Errorf("provision: %w", err)
				continue
			}
		}
		w.sys, w.state = sys, state
		w.golden = sys.Snapshot()
		w.uses, w.epoch = 0, 0
		w.boots++
		p.mu.Lock()
		p.stats.Boots++
		p.stats.BootNS += uint64(time.Since(start).Nanoseconds())
		p.mu.Unlock()
		return nil
	}
	return lastErr
}

// Get checks a worker out, blocking until one is idle or ctx is done.
// When ctx carries an observability trace (internal/obs), the wait for
// an idle worker is recorded as an "acquire" span.
func (p *Pool) Get(ctx context.Context) (*Worker, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.mu.Unlock()
	sp := obs.FromContext(ctx).StartSpan("acquire")
	select {
	case w := <-p.free:
		p.mu.Lock()
		if p.closed {
			// Lost the race with Close: hand the worker back for the
			// drain loop to collect.
			p.mu.Unlock()
			p.free <- w
			sp.EndDetail("closed")
			return nil, ErrClosed
		}
		p.inFlight++
		p.stats.Gets++
		w.uses++
		p.mu.Unlock()
		sp.EndDetail(fmt.Sprintf("worker=%d", w.id))
		return w, nil
	case <-ctx.Done():
		sp.EndDetail("deadline")
		return nil, ctx.Err()
	}
}

// Put releases a worker checked out with Get. The outcome decides its
// fate: OK restores the golden snapshot, Keep preserves state, Fail
// retires. Re-provisioning happens synchronously in the caller.
func (p *Pool) Put(w *Worker, outcome Outcome) {
	p.Release(context.Background(), w, outcome)
}

// Release is Put with a request context: when ctx carries an
// observability trace (internal/obs), the re-provision phase is recorded
// as a "restore" span whose detail names the action actually taken —
// "golden" (snapshot rewind), "keep" (state preserved, no rewind) or
// "boot" (full re-boot, from Fail, the reuse limit, or a rewind whose
// restore or health check failed). Re-provisioning happens synchronously
// in the caller, so the span measures cost the releasing request really
// paid.
func (p *Pool) Release(ctx context.Context, w *Worker, outcome Outcome) {
	p.mu.Lock()
	p.inFlight--
	p.stats.Puts++
	closed := p.closed
	p.mu.Unlock()

	if closed {
		// Draining: no point re-provisioning, just hand it back.
		p.free <- w
		return
	}

	sp := obs.FromContext(ctx).StartSpan("restore")
	overused := p.cfg.MaxReuse > 0 && w.uses >= p.cfg.MaxReuse
	switch {
	case outcome == Fail || overused:
		p.count(func(s *Stats) { s.Retires++ })
		p.reboot(w)
		sp.EndDetail("boot")
	case outcome == Keep:
		p.free <- w
		sp.EndDetail("keep")
	default:
		sp.EndDetail(p.restore(w))
	}
}

func (p *Pool) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// restore rewinds the worker to its golden snapshot and health-checks it;
// on any failure it falls back to a full re-boot. It returns the path it
// took, "golden" or "boot", for Release's span detail.
func (p *Pool) restore(w *Worker) string {
	start := time.Now()
	phys := w.sys.Machine().Phys
	before := phys.RestoreStats()
	err := w.sys.Restore(w.golden)
	if err == nil {
		w.epoch++
		after := phys.RestoreStats()
		p.count(func(s *Stats) {
			s.Restores++
			s.RestoreNS += uint64(time.Since(start).Nanoseconds())
			s.DeltaRestores += after.DeltaRestores - before.DeltaRestores
			s.RestoreWords += after.LastWordsCopied
			s.RestorePages += after.LastPagesCopied
			s.RestoreWordsFull += phys.TotalWords()
		})
		if p.cfg.HealthCheck != nil {
			if herr := p.cfg.HealthCheck(w.sys, w.state); herr != nil {
				p.count(func(s *Stats) { s.HealthFails++; s.Retires++ })
				p.reboot(w)
				return "boot"
			}
		}
		p.free <- w
		return "golden"
	}
	p.count(func(s *Stats) { s.Retires++ })
	p.reboot(w)
	return "boot"
}

// reboot fully re-boots the worker slot. If every retry fails the slot is
// abandoned: the pool shrinks and the failure is visible in Stats.Dead.
func (p *Pool) reboot(w *Worker) {
	if err := p.boot(w); err != nil {
		p.mu.Lock()
		p.live--
		p.dead++
		p.mu.Unlock()
		return
	}
	p.free <- w
}

// Telemetry collects telemetry snapshots from currently idle workers —
// checking each out briefly and returning it untouched — without blocking
// behind in-flight requests. Workers busy serving are skipped, so under
// load the sample covers only the idle subset.
func (p *Pool) Telemetry() []telemetry.Snapshot {
	var held []*Worker
	var out []telemetry.Snapshot
collect:
	for i := 0; i < p.cfg.Size; i++ {
		select {
		case w := <-p.free:
			held = append(held, w)
			out = append(out, w.sys.TelemetrySnapshot())
		default:
			break collect
		}
	}
	for _, w := range held {
		p.free <- w
	}
	return out
}

// Stats reports pool activity.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Size = p.cfg.Size
	s.Live = p.live
	s.Dead = p.dead
	s.Available = len(p.free)
	s.InFlight = p.inFlight
	return s
}

// Close drains the pool: new Gets fail with ErrClosed, and Close blocks
// until every live worker has been released (or ctx is done). After Close
// returns nil, no requests are in flight and no workers leak.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	collected := 0
	for {
		p.mu.Lock()
		live := p.live
		p.mu.Unlock()
		if collected >= live {
			return nil
		}
		select {
		case <-p.free:
			collected++
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
