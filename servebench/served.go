package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	clients = 2 // closed-loop clients, one keep-alive connection each
	workers = 2 // pool size
)

// serverConfig is the server configuration of workload w over p and cs
// (cs is nil on attest). Everything not set here is the server default:
// unbatched signs, a checkpoint after every sign.
func serverConfig(w workload, p *pool.Pool, cs *server.CheckpointStore) server.Config {
	cfg := server.Config{Pool: p, Checkpoints: cs}
	if w.batched {
		cfg.BatchMaxSize = 32
		cfg.BatchMinSize = 2
		cfg.BatchWindow = 2 * time.Millisecond
		cfg.BatchDedup = true
	}
	return cfg
}

// openLayers opens the state dir (sign workloads only) and boots the
// pool, the same way for the served and the traced path.
func openLayers(w workload, seed int64, dir string, sopts ...store.Option) (*server.CheckpointStore, *pool.Pool, error) {
	var cs *server.CheckpointStore
	if w.sign {
		if w.batched {
			sopts = append(sopts, store.WithGroupCommit())
		}
		var err error
		if cs, err = server.OpenCheckpointStore(dir, sopts...); err != nil {
			return nil, nil, fmt.Errorf("opening state dir: %w", err)
		}
	}
	p, err := pool.New(pool.Config{
		Size:      workers,
		Boot:      server.Blueprint(uint64(seed)),
		Provision: server.RestoreProvision(cs),
	})
	if err != nil {
		if cs != nil {
			cs.Close()
		}
		return nil, nil, err
	}
	return cs, p, nil
}

// stack is the served system: state dir, pool, server and a loopback
// listener, all in this process.
type stack struct {
	w      workload
	cs     *server.CheckpointStore
	pool   *pool.Pool
	srv    *server.Server
	hs     *http.Server
	served chan error // Serve's return value
	base   string
	dir    string // state dir (sign workloads)
}

// openStack brings the served system up until the first request can be
// sent. Its wall time is setup_s.
func openStack(w workload, seed int64, dir string) (*stack, error) {
	cs, p, err := openLayers(w, seed, dir)
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, cs: cs, pool: p, srv: server.New(serverConfig(w, p, cs)), served: make(chan error, 1), dir: dir}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeLayers()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv}
	s.base = "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains and stops the server, then the pool and the store.
func (s *stack) close() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return errors.Join(err, s.closeLayers())
}

func (s *stack) closeLayers() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.pool.Close(ctx)
	if s.cs != nil {
		err = errors.Join(err, s.cs.Close())
	}
	return err
}

// waitIdle waits until every worker is back in the pool: telemetry reads
// skip busy workers, so counters are read only with all of them idle.
func waitIdle(p *pool.Pool) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := p.Stats(); st.Available == st.Live && st.InFlight == 0 {
			return nil
		}
	}
	return fmt.Errorf("workers still busy 10s after the load stopped")
}

// quoteKey fetches the verifier key attest quotes are checked against.
func (s *stack) quoteKey() ([8]uint32, error) {
	resp, err := http.Get(s.base + "/v1/quotekey")
	if err != nil {
		return [8]uint32{}, err
	}
	defer resp.Body.Close()
	var qk server.QuoteKeyResponse
	if err := json.NewDecoder(resp.Body).Decode(&qk); err != nil {
		return [8]uint32{}, fmt.Errorf("quote key: %w", err)
	}
	return server.DecodeWords(qk.QuoteKey)
}

// httpClient is one closed-loop client: it owns one keep-alive
// connection and waits for each reply before sending again.
type httpClient struct {
	w    workload
	base string
	qk   [8]uint32
	hc   *http.Client
	tr   *http.Transport
}

func newHTTPClient(s *stack, qk [8]uint32) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{w: s.w, base: s.base, qk: qk, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and verifies the reply. The latency is send to
// fully read response; verification is not part of it.
func (c *httpClient) do(req request) (time.Duration, outcome, error) {
	var hreq *http.Request
	var err error
	if c.w.sign {
		hreq, err = http.NewRequest(http.MethodPost, c.base+"/v1/notary/sign", bytes.NewReader(req.doc))
	} else {
		hreq, err = http.NewRequest(http.MethodGet, c.base+"/v1/attest?nonce="+url.QueryEscape(req.nonce), nil)
	}
	if err != nil {
		return 0, outcome{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, outcome{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, outcome{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if c.w.sign {
		var nr server.NotaryResponse
		if err := json.Unmarshal(body, &nr); err != nil {
			return lat, outcome{}, fmt.Errorf("sign: %w", err)
		}
		o, err := checkSign(req.doc, nr, c.w.batched)
		return lat, o, err
	}
	var ar server.AttestResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return lat, outcome{}, fmt.Errorf("attest: %w", err)
	}
	o, err := attestOutcome(c.qk, req.nonce, ar)
	return lat, o, err
}

func attestOutcome(qk [8]uint32, nonce string, ar server.AttestResponse) (outcome, error) {
	o := outcome{worker: ar.Worker, epoch: ar.Epoch}
	if ar.Nonce != nonce {
		return o, fmt.Errorf("attest: nonce not echoed")
	}
	var words [3][8]uint32
	for i, h := range []string{ar.Data, ar.Measurement, ar.Quote} {
		var err error
		if words[i], err = server.DecodeWords(h); err != nil {
			return o, fmt.Errorf("attest: %w", err)
		}
	}
	o.quote = words[2]
	return o, checkQuote(qk, nonce, words[0], words[1], words[2])
}

// opFunc performs and verifies one operation for a client.
type opFunc func(client int, req request) (time.Duration, outcome, error)

// tally is one client's account of a phase.
type tally struct {
	lats      []time.Duration // completed, verified operations
	ends      []time.Duration // their completion times, from the phase start
	attempted int
	failed    int
	topRank   int // requests that drew corpus rank 0 (sign-batched)
	errs      []error
}

const maxErrs = 3 // errors kept per client for the report

// drive runs every client closed-loop until d has passed and returns
// their tallies. Each client takes its
// next request from its own generator; signed counters go to led.
func drive(gens []*generator, op opFunc, led *ledger, batched bool, d time.Duration) []tally {
	tallies := make([]tally, len(gens))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for time.Now().Before(deadline) {
				req := gens[i].next()
				t.attempted++
				if req.rank == 0 {
					t.topRank++
				}
				lat, o, err := op(i, req)
				if err == nil && led != nil {
					err = led.record(i, o, batched)
				}
				if err != nil {
					t.failed++
					if len(t.errs) < maxErrs {
						t.errs = append(t.errs, err)
					}
					continue
				}
				t.lats = append(t.lats, lat)
				t.ends = append(t.ends, time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	return tallies
}

// checkDurable reopens a closed state dir the way a restarted server
// would (OpenCheckpointStore + RestoreProvision) and signs once on every
// worker. Each new counter must exceed every counter that worker
// acknowledged before the restart.
func checkDurable(w workload, seed int64, dir string, acked map[int]uint32) error {
	cs, p, err := openLayers(w, seed, dir)
	if err != nil {
		return fmt.Errorf("durability check: reopening: %w", err)
	}
	defer cs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer p.Close(ctx)
	held := make([]*pool.Worker, 0, workers)
	defer func() {
		for _, wk := range held {
			p.Release(ctx, wk, pool.Keep)
		}
	}()
	for i := 0; i < workers; i++ {
		wk, err := p.Get(ctx)
		if err != nil {
			return fmt.Errorf("durability check: %w", err)
		}
		held = append(held, wk)
		st, ok := wk.State().(*server.WorkerState)
		if !ok {
			return fmt.Errorf("durability check: worker state is %T", wk.State())
		}
		n, err := server.NotarySign(ctx, st, []byte("durability probe"))
		if err != nil {
			return fmt.Errorf("durability check: signing on worker %d: %w", wk.ID(), err)
		}
		if n.Counter <= acked[wk.ID()] {
			return fmt.Errorf("durability check: worker %d issued counter %d after acknowledging %d before restart",
				wk.ID(), n.Counter, acked[wk.ID()])
		}
	}
	return nil
}
