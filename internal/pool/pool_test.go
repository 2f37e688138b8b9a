package pool

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kasm"
	"repro/internal/telemetry"
	"repro/komodo"
)

// counterBoot boots a board with the notary guest, whose monotonic
// counter makes restore-vs-keep semantics directly observable.
func counterBoot() (*komodo.System, any, error) {
	sys, err := komodo.New(komodo.WithSeed(7), komodo.WithTelemetry())
	if err != nil {
		return nil, nil, err
	}
	nimg, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		return nil, nil, err
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(nimg))
	if err != nil {
		return nil, nil, err
	}
	return sys, enc, nil
}

// notarise runs one 16-word document through the worker's notary and
// returns the counter.
func notarise(t *testing.T, w *Worker) uint32 {
	t.Helper()
	enc := w.State().(*komodo.Enclave)
	doc := make([]uint32, 16)
	if err := enc.WriteShared(0, 0, doc); err != nil {
		t.Fatal(err)
	}
	res, err := enc.Run(uint32(len(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func mustPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Boot == nil {
		cfg.Boot = counterBoot
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Close(ctx)
	})
	return p
}

func get(t *testing.T, p *Pool) *Worker {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRestoreClearsEnclaveState(t *testing.T) {
	p := mustPool(t, Config{Size: 1})
	w := get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("fresh counter = %d, want 1", c)
	}
	p.Put(w, OK) // restore to golden
	w = get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("counter after restore = %d, want 1 (state leaked)", c)
	}
	p.Put(w, OK)
	s := p.Stats()
	if s.Restores != 2 || s.Boots != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestKeepPreservesEnclaveState(t *testing.T) {
	p := mustPool(t, Config{Size: 1})
	for want := uint32(1); want <= 3; want++ {
		w := get(t, p)
		if c := notarise(t, w); c != want {
			t.Fatalf("counter = %d, want %d", c, want)
		}
		p.Put(w, Keep)
	}
	if s := p.Stats(); s.Restores != 0 || s.Boots != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFailRetiresWorker(t *testing.T) {
	p := mustPool(t, Config{Size: 1})
	w := get(t, p)
	notarise(t, w)
	p.Put(w, Fail)
	w = get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("counter after retire = %d, want 1", c)
	}
	p.Put(w, OK)
	s := p.Stats()
	if s.Retires != 1 || s.Boots != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestMaxReuseTriggersReboot(t *testing.T) {
	p := mustPool(t, Config{Size: 1, MaxReuse: 2})
	// Two Keep checkouts advance the counter, then the limit retires the
	// worker even though the caller asked to keep state.
	for want := uint32(1); want <= 2; want++ {
		w := get(t, p)
		if c := notarise(t, w); c != want {
			t.Fatalf("counter = %d, want %d", c, want)
		}
		p.Put(w, Keep)
	}
	w := get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("counter after reuse-limit reboot = %d, want 1", c)
	}
	p.Put(w, OK)
	if s := p.Stats(); s.Boots != 2 || s.Retires != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBootEachMode(t *testing.T) {
	p := mustPool(t, Config{Size: 1, Mode: ModeBootEach})
	for i := 0; i < 2; i++ {
		w := get(t, p)
		if c := notarise(t, w); c != 1 {
			t.Fatalf("counter = %d, want 1", c)
		}
		p.Put(w, OK)
	}
	s := p.Stats()
	if s.Boots != 3 || s.Restores != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestHealthCheckRetires(t *testing.T) {
	calls := 0
	p := mustPool(t, Config{
		Size: 1,
		HealthCheck: func(sys *komodo.System, state any) error {
			calls++
			if calls == 1 {
				return errors.New("synthetic failure")
			}
			return nil
		},
	})
	w := get(t, p)
	p.Put(w, OK) // restore → health check fails → reboot
	w = get(t, p)
	p.Put(w, OK) // restore → health check passes
	s := p.Stats()
	if s.HealthFails != 1 || s.Boots != 2 || s.Retires != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBootFailurePermanentlyDeadSlot(t *testing.T) {
	boots := 0
	boot := func() (*komodo.System, any, error) {
		boots++
		if boots > 1 {
			return nil, nil, errors.New("board on fire")
		}
		return counterBoot()
	}
	p := mustPool(t, Config{Size: 1, Boot: boot, BootRetries: 2})
	w := get(t, p)
	p.Put(w, Fail) // retire → both boot retries fail → slot dies
	s := p.Stats()
	if s.Live != 0 || s.Dead != 1 {
		t.Fatalf("stats: %+v", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.Get(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get on dead pool: %v", err)
	}
}

func TestGetContextCancel(t *testing.T) {
	p := mustPool(t, Config{Size: 1})
	w := get(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Get(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	p.Put(w, OK)
}

func TestCloseDrainsAndRejects(t *testing.T) {
	p, err := New(Config{Size: 2, Boot: counterBoot})
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, p)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- p.Close(ctx)
	}()
	// Close must wait for the in-flight worker...
	select {
	case err := <-done:
		t.Fatalf("Close returned with a worker in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := p.Get(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	p.Put(w, OK)
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s := p.Stats(); s.InFlight != 0 {
		t.Fatalf("workers leaked: %+v", s)
	}
}

// TestConcurrentCheckouts hammers a small pool from many goroutines; run
// with -race this is the pool's isolation regression test.
func TestConcurrentCheckouts(t *testing.T) {
	p := mustPool(t, Config{Size: 2, MaxReuse: 5})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				w, err := p.Get(ctx)
				cancel()
				if err != nil {
					errs <- err.Error()
					return
				}
				enc := w.State().(*komodo.Enclave)
				doc := make([]uint32, 16)
				if werr := enc.WriteShared(0, 0, doc); werr != nil {
					errs <- werr.Error()
					p.Put(w, Fail)
					return
				}
				res, rerr := enc.Run(uint32(len(doc)))
				if rerr != nil {
					errs <- rerr.Error()
					p.Put(w, Fail)
					return
				}
				// Restore-on-release means every checkout sees a fresh
				// counter: cross-request leakage would show up here.
				if res.Value != 1 {
					errs <- "counter leaked across requests"
					p.Put(w, Fail)
					return
				}
				p.Put(w, OK)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s := p.Stats(); s.InFlight != 0 || s.Available != s.Live {
		t.Fatalf("pool not quiescent: %+v", s)
	}
}

// TestProvisionBakedIntoGolden: state established by the Provision hook
// is captured in the golden snapshot, so it survives every restore —
// the mechanism komodo-serve uses to make restored notary counters
// durable across the restore-on-release cycle.
func TestProvisionBakedIntoGolden(t *testing.T) {
	p := mustPool(t, Config{
		Size: 1,
		Provision: func(id int, sys *komodo.System, state any) error {
			// Advance the notary once: the golden counter becomes 1.
			enc := state.(*komodo.Enclave)
			if err := enc.WriteShared(0, 0, make([]uint32, 16)); err != nil {
				return err
			}
			res, err := enc.Run(16)
			if err != nil {
				return err
			}
			if res.Value != 1 {
				return errors.New("provision saw stale counter")
			}
			return nil
		},
	})
	for i := 0; i < 2; i++ {
		w := get(t, p)
		// Provisioned counter=1 is part of golden: every checkout sees 2.
		if c := notarise(t, w); c != 2 {
			t.Fatalf("checkout %d: counter = %d, want 2", i, c)
		}
		p.Put(w, OK)
	}
}

func TestProvisionFailureRetriesBoot(t *testing.T) {
	calls := 0
	p := mustPool(t, Config{
		Size:        1,
		BootRetries: 3,
		Provision: func(id int, sys *komodo.System, state any) error {
			calls++
			if calls == 1 {
				return errors.New("store unavailable")
			}
			return nil
		},
	})
	if calls != 2 {
		t.Fatalf("provision called %d times, want 2", calls)
	}
	w := get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("counter = %d, want 1", c)
	}
	p.Put(w, OK)
}

func TestProvisionFailurePermanent(t *testing.T) {
	_, err := New(Config{
		Size: 1,
		Boot: counterBoot,
		Provision: func(id int, sys *komodo.System, state any) error {
			return errors.New("always broken")
		},
	})
	if err == nil {
		t.Fatal("New succeeded with a permanently failing Provision")
	}
}

// TestRebase: re-capturing the golden snapshot mid-checkout makes the
// current state the new restore point.
func TestRebase(t *testing.T) {
	p := mustPool(t, Config{Size: 1})
	w := get(t, p)
	if c := notarise(t, w); c != 1 {
		t.Fatalf("counter = %d, want 1", c)
	}
	w.Rebase()
	if w.Epoch() != 0 {
		t.Fatalf("epoch after rebase = %d, want 0", w.Epoch())
	}
	p.Put(w, OK) // restore → rewinds to the rebased state, counter stays 1
	w = get(t, p)
	if c := notarise(t, w); c != 2 {
		t.Fatalf("counter after rebased restore = %d, want 2 (rebase lost)", c)
	}
	p.Put(w, OK)
	w = get(t, p)
	if c := notarise(t, w); c != 2 {
		t.Fatalf("second restore = %d, want 2", c)
	}
	p.Put(w, OK)

	// The durable steady state: sign, seal a checkpoint, rebase and keep
	// the worker, with stateless requests released OK in between. Every
	// rebase must fold into the golden snapshot in place: no full
	// snapshot is ever taken and every restore stays a delta.
	phys := w.sys.Machine().Phys
	before := phys.RestoreStats()
	for want := uint32(2); want < 10; want++ {
		w = get(t, p)
		if c := notarise(t, w); c != want {
			t.Fatalf("durable sign = %d, want %d", c, want)
		}
		if _, err := w.System().CheckpointEnclave(w.State().(*komodo.Enclave)); err != nil {
			t.Fatal(err)
		}
		w.Rebase()
		p.Put(w, Keep)
		w = get(t, p)
		notarise(t, w)
		p.Put(w, OK)
	}
	after := phys.RestoreStats()
	if after.Snapshots != before.Snapshots || after.FullRestores != before.FullRestores {
		t.Fatalf("steady-state rebases fell back: %d snapshots, %d full restores",
			after.Snapshots-before.Snapshots, after.FullRestores-before.FullRestores)
	}
	if after.DeltaRestores-before.DeltaRestores != 8 {
		t.Fatalf("delta restores = %d, want 8", after.DeltaRestores-before.DeltaRestores)
	}
}

// tracedBoot boots like counterBoot but attaches a live event sink, so
// the traced-load race test exercises the telemetry emit path too.
func tracedBoot() (*komodo.System, any, error) {
	sys, err := komodo.New(komodo.WithSeed(7), komodo.WithTelemetry(),
		komodo.WithTelemetrySink(&telemetry.MemorySink{}))
	if err != nil {
		return nil, nil, err
	}
	nimg, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		return nil, nil, err
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(nimg))
	if err != nil {
		return nil, nil, err
	}
	return sys, enc, nil
}

// TestConcurrentCheckoutsTraced is the traced-load variant of
// TestConcurrentCheckouts: workers run with event sinks attached and the
// block cache + dirty-page tracking on (the defaults), while a sampler
// goroutine scrapes Telemetry/Stats concurrently, the way /metrics and
// /v1/stats do. Run with -race this covers the whole hot path. It also
// pins the delta-restore win: restores must move ≥10× fewer words than
// full copies of the same machines would.
func TestConcurrentCheckoutsTraced(t *testing.T) {
	p := mustPool(t, Config{Size: 2, MaxReuse: 8, Boot: tracedBoot})
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Telemetry()
			p.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				w, err := p.Get(ctx)
				cancel()
				if err != nil {
					errs <- err.Error()
					return
				}
				enc := w.State().(*komodo.Enclave)
				doc := make([]uint32, 16)
				if werr := enc.WriteShared(0, 0, doc); werr != nil {
					errs <- werr.Error()
					p.Put(w, Fail)
					return
				}
				res, rerr := enc.Run(uint32(len(doc)))
				if rerr != nil {
					errs <- rerr.Error()
					p.Put(w, Fail)
					return
				}
				if res.Value != 1 {
					errs <- "counter leaked across requests"
					p.Put(w, Fail)
					return
				}
				p.Put(w, OK)
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := p.Stats()
	if s.InFlight != 0 || s.Available != s.Live {
		t.Fatalf("pool not quiescent: %+v", s)
	}
	if s.DeltaRestores == 0 {
		t.Fatalf("no delta restores under serving load: %+v", s)
	}
	if s.RestoreWords*10 > s.RestoreWordsFull {
		t.Fatalf("delta restores copied %d of %d full-equivalent words, want ≥10× reduction",
			s.RestoreWords, s.RestoreWordsFull)
	}
}

func TestTelemetrySampling(t *testing.T) {
	p := mustPool(t, Config{Size: 2})
	w := get(t, p)
	notarise(t, w)
	// One worker in flight: sampling must cover only the idle one and
	// must not block.
	snaps := p.Telemetry()
	if len(snaps) != 1 {
		t.Fatalf("sampled %d workers, want 1", len(snaps))
	}
	p.Put(w, Keep)
	snaps = p.Telemetry()
	if len(snaps) != 2 {
		t.Fatalf("sampled %d workers, want 2", len(snaps))
	}
	if s := p.Stats(); s.Available != 2 {
		t.Fatalf("telemetry sampling leaked workers: %+v", s)
	}
}
