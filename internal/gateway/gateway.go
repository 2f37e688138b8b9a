package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config configures New.
type Config struct {
	// Backends lists the komodo-serve nodes to front. Required, >= 1.
	Backends []BackendSpec
	// VNodes is the number of ring points per backend (default 64).
	VNodes int
	// ProbeInterval is the mean health-probe period per backend (default
	// 500ms). Each probe is jittered ±25% so a fleet of backends is
	// never probed in lockstep.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /v1/healthz probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter demotes a backend after this many consecutive probe
	// failures (default 2). Request-path transport errors demote
	// immediately regardless.
	DownAfter int
	// UpAfter promotes a down backend after this many consecutive probe
	// successes (default 2).
	UpAfter int
	// RequestTimeout bounds one proxied request end to end (default 60s:
	// longer than the backends' own worker-wait deadline, so the backend
	// — which knows why it is slow — answers first).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently proxied requests; beyond it the
	// gateway sheds with 429 + Retry-After (default 256).
	MaxInFlight int
	// DisableProbes skips the background probe loops (unit tests drive
	// the state machine by hand).
	DisableProbes bool
	// FlightRecorderSize caps the slow-trace recorder for
	// /v1/debug/traces (default obs.DefaultFlightRecorderSize).
	FlightRecorderSize int
}

// Gateway is the fleet front. It implements http.Handler.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *Ring
	edge     *obs.Edge
	client   *http.Client
	slots    chan struct{}
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	// mu guards the routing overlays: forward (backend idx → idx its
	// shards were migrated to) and migrating (backends whose shard
	// traffic is briefly held with a retryable 503 while their state is
	// in flight between nodes).
	mu        sync.RWMutex
	forward   map[int]int
	migrating map[int]bool

	rr atomic.Uint64 // round-robin cursor for stateless endpoints

	requests    atomic.Uint64 // requests hitting the proxied endpoints
	proxied     atomic.Uint64 // requests that reached some backend
	failovers   atomic.Uint64 // shard requests served by a non-owner because the owner was down
	migrations  atomic.Uint64 // completed live migrations
	shed429     atomic.Uint64 // gateway-originated 429 (MaxInFlight)
	noBackend   atomic.Uint64 // gateway-originated 503: no routable backend
	holds       atomic.Uint64 // gateway-originated 503: shard held mid-migration
	drainRej    atomic.Uint64 // gateway-originated 503: gateway draining
	badGateway  atomic.Uint64 // gateway-originated 502: backend died mid-request
	probesTotal atomic.Uint64 // health probes completed, summed over all backends
}

// New builds the gateway. It does not block on backend availability:
// backends start optimistically up and the probe loops (unless disabled)
// converge the state machine from there.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: Config.Backends is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.UpAfter <= 0 {
		cfg.UpAfter = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	g := &Gateway{
		cfg:       cfg,
		edge:      obs.NewEdge(cfg.FlightRecorderSize, nil),
		slots:     make(chan struct{}, cfg.MaxInFlight),
		stop:      make(chan struct{}),
		forward:   map[int]int{},
		migrating: map[int]bool{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.MaxInFlight,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	for i, spec := range cfg.Backends {
		g.backends = append(g.backends, newBackend(spec, i))
	}
	g.ring = NewRing(len(g.backends), cfg.VNodes)

	// Traced routes run the backends' tracing pipeline at the gateway edge.
	// The same trace id then propagates to the chosen backend, so one
	// distributed timeline spans edge → gateway → backend → monitor cycles.
	e := g.edge
	e.Traced("/v1/notary/sign", g.handleNotarySign)
	e.Traced("/v1/attest", g.handleStateless)
	e.Traced("/v1/quotekey", g.handleStateless)
	e.Traced("/v1/checkpoint", g.handleAdminProxy)
	e.Traced("/v1/restore", g.handleAdminProxy)
	e.Traced("/v1/healthz", g.handleHealthz)
	e.Traced("/v1/stats", g.handleStats)
	e.Traced("/v1/admin/migrate", g.handleMigrate)
	e.Traced("/v1/admin/reinstate", g.handleReinstate)
	e.Traced("/v1/admin/backends", g.handleBackends)
	e.HandleFunc("/metrics", g.handleMetrics)

	if !cfg.DisableProbes {
		for _, b := range g.backends {
			go g.probeLoop(b)
		}
	}
	return g, nil
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.edge.ServeHTTP(w, r) }

// Close stops the probe loops. Idempotent.
func (g *Gateway) Close() { g.stopOnce.Do(func() { close(g.stop) }) }

// Drain flips the gateway into draining mode: /v1/healthz starts failing
// and proxied endpoints refuse new work with a retryable 503.
func (g *Gateway) Drain() { g.draining.Store(true) }

// Edge returns the gateway's request plane: its routes, latency
// histograms, flight recorder and listen/drain lifecycle.
func (g *Gateway) Edge() *obs.Edge { return g.edge }

// Backend returns the index of the named backend, or -1.
func (g *Gateway) Backend(name string) int {
	for i, b := range g.backends {
		if b.name == name {
			return i
		}
	}
	return -1
}

// admit takes a gateway in-flight slot, or sheds the request. The
// returned release func is nil when admission failed (the response has
// already been written). Like every retryable rejection the gateway
// mints (429, 503, 502), it passes obs.ReplyErr a Retry-After, mirroring
// the backends' own backpressure contract.
func (g *Gateway) admit(w http.ResponseWriter) func() {
	if g.draining.Load() {
		g.drainRej.Add(1)
		obs.ReplyErr(w, http.StatusServiceUnavailable, "5", "gateway draining")
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }
	default:
		g.shed429.Add(1)
		obs.ReplyErr(w, http.StatusTooManyRequests, "1", "gateway saturated (in-flight limit %d)", g.cfg.MaxInFlight)
		return nil
	}
}

// resolveLocked follows the forwarding overlay from a ring owner to the
// backend currently holding its shards. Bounded by the backend count, so
// a (never-constructed) forwarding cycle cannot spin. Caller holds g.mu.
func (g *Gateway) resolveLocked(idx int) int {
	for hops := 0; hops < len(g.backends); hops++ {
		next, ok := g.forward[idx]
		if !ok {
			return idx
		}
		idx = next
	}
	return idx
}

func (g *Gateway) resolve(idx int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.resolveLocked(idx)
}

// routeShard picks the backend for a shard key: the ring owner (through
// the migration forwarding overlay) when it is up, else the next up
// backend in ring order. held reports that the shard is held by an
// in-flight migration, failover that down backends were skipped.
//
// When a backend is returned, its in-flight count has already been
// incremented inside the same g.mu critical section that observed no
// migration hold, making route-selection and admission one atomic step
// with respect to Migrate: the hold is set under the write lock, which
// cannot be acquired until every reader that saw the old state — and
// therefore already bumped in-flight — has released. Once Migrate
// samples the in-flight count, any request it doesn't see is guaranteed
// to observe the hold and bounce. The caller must balance the count
// (forwardTo's deferred decrement does).
func (g *Gateway) routeShard(key string) (b *backend, held, failover bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := map[int]bool{}
	for _, cand := range g.ring.Candidates(key) {
		idx := g.resolveLocked(cand)
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if g.migrating[idx] {
			return nil, true, failover
		}
		if b := g.backends[idx]; b.State() == StateUp {
			b.inflight.Add(1)
			return b, false, failover
		}
		failover = true
	}
	return nil, false, failover
}

// nextUp picks a backend for stateless traffic: round-robin over up
// backends (skipping forwarded-away and migrating ones). Like
// routeShard, a returned backend carries an in-flight reservation taken
// under g.mu, so stateless traffic quiesces correctly too.
func (g *Gateway) nextUp() *backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := len(g.backends)
	start := int(g.rr.Add(1))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if _, forwarded := g.forward[idx]; forwarded || g.migrating[idx] {
			continue
		}
		if b := g.backends[idx]; b.State() == StateUp {
			b.inflight.Add(1)
			return b
		}
	}
	return nil
}

// isDialError reports whether err is a transport failure that happened
// before the request could have reached a handler (connection refused,
// no route, DNS) — the only failures where retrying a non-idempotent
// POST on another backend is safe.
func isDialError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) {
		return op.Op == "dial"
	}
	return false
}

// forwardedRequestHeaders are copied client → backend verbatim;
// forwardedResponseHeaders are copied backend → client verbatim. Both
// lists are the batching/admission plane of internal/server (batch.go).
var (
	forwardedRequestHeaders  = []string{server.TenantHeader, server.NonceHeader}
	forwardedResponseHeaders = []string{server.RejectHeader, server.TierHeader, server.BatchHeader}
)

// forwardTo proxies one buffered request to a backend, streaming the
// response back. It returns an error only when the transport failed, and
// then has written nothing to w. The caller must have taken an in-flight
// reservation on b (routeShard/nextUp do it inside their routing
// critical section; handleAdminProxy does it explicitly) — forwardTo
// owns the matching decrement. Response headers relevant to the client
// are copied through — Content-Type, and crucially Retry-After, so
// backend-minted 429/503 backpressure keeps its retry contract through
// the gateway — and X-Komodo-Backend names the node that really served
// the request, which is what per-backend client-side attribution keys
// on.
func (g *Gateway) forwardTo(w http.ResponseWriter, r *http.Request, b *backend, body []byte) error {
	tr := obs.FromContext(r.Context())
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, b.url+r.URL.RequestURI(), rd)
	if err != nil {
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tp := tr.Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	// Tenant admission headers travel to the backend unmodified — through
	// shard routing AND failover — so tenant accounting and leaf binding
	// work fleet-wide no matter which node serves the request
	// (docs/BATCHING.md).
	for _, h := range forwardedRequestHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}

	defer b.inflight.Add(-1)
	sp := tr.StartSpan("proxy")
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		b.observe(0, time.Since(start), true)
		sp.EndDetail(fmt.Sprintf("backend=%s error", b.name))
		return err
	}
	defer resp.Body.Close()

	w.Header().Set("X-Komodo-Backend", b.name)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	// Batch receipt and rejection-classification headers come back
	// unmodified: clients (and komodo-load's class tallies) must see the
	// backend's X-Komodo-Reject/Tier/Batch exactly as minted.
	for _, h := range forwardedResponseHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// A copy error leaves the client a truncated body; nothing more to do.
	io.Copy(w, resp.Body)
	b.observe(resp.StatusCode, time.Since(start), false)
	sp.EndDetail(fmt.Sprintf("backend=%s status=%d", b.name, resp.StatusCode))
	g.proxied.Add(1)
	return nil
}

// handleNotarySign routes by counter shard: the shard key comes from the
// ?shard= query parameter (or the X-Komodo-Shard header), the ring maps
// it to a backend, and down owners fail over along the ring. Requests
// without a shard key all hash to the same well-known shard, so an
// unsharded client still sees one consistent counter stream.
func (g *Gateway) handleNotarySign(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	release := g.admit(w)
	if release == nil {
		return
	}
	defer release()

	key := r.URL.Query().Get("shard")
	if key == "" {
		key = r.Header.Get("X-Komodo-Shard")
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}

	g.proxy(w, r, body, fmt.Sprintf("shard %q", key), func() (*backend, bool, bool) { return g.routeShard(key) })
}

// handleStateless proxies endpoints with no shard affinity (/v1/attest,
// /v1/quotekey) round-robin across up backends, retrying dial failures
// on the next backend (both endpoints are idempotent GETs).
func (g *Gateway) handleStateless(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	release := g.admit(w)
	if release == nil {
		return
	}
	defer release()
	g.proxy(w, r, nil, "", func() (*backend, bool, bool) { return g.nextUp(), false, false })
}

// proxy forwards r to the backend pick chooses, as routeShard does (nil
// when none is live). A request may need several attempts: the chosen
// backend can die between the probe and the proxy, and retrying is safe
// only on dial-level errors (the backend never saw the request). what
// names the shard in 503 messages ("" for none).
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, body []byte, what string, pick func() (b *backend, held, failover bool)) {
	noBackend := "no live backend"
	if what != "" {
		noBackend += " for " + what
	}
	for attempt := 0; attempt <= len(g.backends); attempt++ {
		b, held, failover := pick()
		if held {
			g.holds.Add(1)
			obs.ReplyErr(w, http.StatusServiceUnavailable, "1", "%s migrating; retry shortly", what)
			return
		}
		if b == nil {
			break
		}
		if err := g.forwardTo(w, r, b, body); err != nil {
			if isDialError(err) {
				continue // backend demoted by observe(); re-route
			}
			g.badGateway.Add(1)
			obs.ReplyErr(w, http.StatusBadGateway, "1", "backend %s: %v", b.name, err)
			return
		}
		// Count the failover once per served request, not once per dial
		// attempt — dead candidates walked on the way don't inflate it.
		if failover {
			g.failovers.Add(1)
		}
		return
	}
	g.noBackend.Add(1)
	obs.ReplyErr(w, http.StatusServiceUnavailable, "2", "%s", noBackend)
}

// readBody reads a request body to forward, bounded by
// server.MaxCheckpointBytes; on failure it has replied 400 or 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, server.MaxCheckpointBytes+1))
	if err != nil {
		obs.ReplyErr(w, http.StatusBadRequest, "", "reading body: %v", err)
		return nil, false
	}
	if int64(len(body)) > server.MaxCheckpointBytes {
		obs.ReplyErr(w, http.StatusRequestEntityTooLarge, "", "body larger than %d bytes", server.MaxCheckpointBytes)
		return nil, false
	}
	return body, true
}

// handleAdminProxy proxies the state-management plane (/v1/checkpoint,
// /v1/restore) to an explicitly named backend (?backend=NAME). These are
// deliberate single-node operations — the orchestration endpoints for
// scripted migrations — so there is no implicit routing and no failover:
// aiming sealed state at the wrong node must be impossible to do by
// accident.
func (g *Gateway) handleAdminProxy(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	release := g.admit(w)
	if release == nil {
		return
	}
	defer release()

	name := r.URL.Query().Get("backend")
	if name == "" {
		obs.ReplyErr(w, http.StatusBadRequest, "", "missing backend parameter (explicit node required for state operations)")
		return
	}
	idx := g.Backend(name)
	if idx < 0 {
		obs.ReplyErr(w, http.StatusNotFound, "", "unknown backend %q", name)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	b := g.backends[idx]
	b.inflight.Add(1) // explicit targeting bypasses routing; forwardTo decrements
	if err := g.forwardTo(w, r, b, body); err != nil {
		g.badGateway.Add(1)
		obs.ReplyErr(w, http.StatusBadGateway, "1", "backend %s: %v", name, err)
	}
}

// HealthzResponse is the gateway's /v1/healthz body.
type HealthzResponse struct {
	Status       string `json:"status"`
	BackendsUp   int    `json:"backends_up"`
	BackendsDown int    `json:"backends_down"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up, down := 0, 0
	for _, b := range g.backends {
		if b.State() == StateUp {
			up++
		} else {
			down++
		}
	}
	body := HealthzResponse{Status: "ok", BackendsUp: up, BackendsDown: down}
	status := http.StatusOK
	switch {
	case g.draining.Load():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case up == 0:
		body.Status = "no live backends"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "2")
	}
	obs.Reply(w, status, body)
}

// GatewayStats is the gateway-local counter block of FleetStats. Its prom
// tags define the edge families of the gateway's /metrics.
type GatewayStats struct {
	Requests     uint64 `json:"requests" prom:"komodo_gateway_requests_total" help:"Requests hitting the gateway's proxied endpoints."`
	Proxied      uint64 `json:"proxied" prom:"komodo_gateway_proxied_total" help:"Requests that reached some backend."`
	Failovers    uint64 `json:"failovers" prom:"komodo_gateway_failovers_total" help:"Shard requests served by a non-owner because the owner was down."`
	Migrations   uint64 `json:"migrations" prom:"komodo_gateway_migrations_total" help:"Completed live migrations."`
	Shed429      uint64 `json:"rejected_429" prom:"komodo_gateway_rejections_total,reason=saturated_429" help:"Gateway-originated rejections by reason (all carry Retry-After)."`
	NoBackend503 uint64 `json:"no_backend_503" prom:"komodo_gateway_rejections_total,reason=no_backend_503"`
	Migrating503 uint64 `json:"migrating_503" prom:"komodo_gateway_rejections_total,reason=migrating_503"`
	Draining503  uint64 `json:"rejected_draining_503" prom:"komodo_gateway_rejections_total,reason=draining_503"`
	BadGateway   uint64 `json:"bad_gateway_502" prom:"komodo_gateway_rejections_total,reason=bad_gateway_502"`
	BackendsUp   int    `json:"backends_up"`
	BackendsDown int    `json:"backends_down"`
	InFlight     int    `json:"in_flight" prom:"komodo_gateway_in_flight" help:"Requests currently holding a gateway slot."`
}

// FleetRejected is the per-backend rejection summary the fleet view
// surfaces directly (not buried inside each backend's stats blob):
// where in the fleet backpressure is biting.
type FleetRejected struct {
	Backend     string `json:"backend"`
	Rejected429 uint64 `json:"rejected_429"`
	Timeouts503 uint64 `json:"timeouts_503"`
	Draining503 uint64 `json:"rejected_draining_503"`
	Failures5xx uint64 `json:"failures_5xx"`
}

// FleetStats is the gateway's /v1/stats body: gateway counters, the
// per-backend view (probe state, proxy outcomes, per-backend latency
// quantiles, each backend's own /v1/stats), and the fleet-wide merge of
// every reachable backend's /v1/stats (server.StatsResponse.Merge).
type FleetStats struct {
	Gateway  GatewayStats    `json:"gateway"`
	Backends []BackendStatus `json:"backends"`
	// Rejected breaks out every backend's rejection counters so shed
	// load is attributable per node at a glance.
	Rejected []FleetRejected `json:"rejected_by_backend"`
	// BackendStats carries each reachable backend's full /v1/stats
	// (aligned with Backends by name; nil when the fetch failed).
	BackendStats map[string]*server.StatsResponse `json:"backend_stats"`
	Fleet        struct {
		Backends int `json:"backends_reporting"`
		server.StatsResponse
	} `json:"fleet"`
}

// edgeStats reads the gateway's own counters and per-backend probe and
// proxy state, without contacting the backends.
func (g *Gateway) edgeStats() (GatewayStats, []BackendStatus) {
	gs := GatewayStats{
		Requests:     g.requests.Load(),
		Proxied:      g.proxied.Load(),
		Failovers:    g.failovers.Load(),
		Migrations:   g.migrations.Load(),
		Shed429:      g.shed429.Load(),
		NoBackend503: g.noBackend.Load(),
		Migrating503: g.holds.Load(),
		Draining503:  g.drainRej.Load(),
		BadGateway:   g.badGateway.Load(),
		InFlight:     len(g.slots),
	}
	backends := make([]BackendStatus, len(g.backends))
	for i, b := range g.backends {
		backends[i] = b.status()
		if backends[i].State == StateUp.String() {
			gs.BackendsUp++
		} else {
			gs.BackendsDown++
		}
		g.mu.RLock()
		if to, ok := g.forward[i]; ok {
			backends[i].ForwardedTo = g.backends[to].name
		}
		g.mu.RUnlock()
	}
	return gs, backends
}

// Stats assembles the fleet view, fanning /v1/stats out to every backend
// concurrently (bounded by ProbeTimeout per backend — stats fetches ride
// the health-check budget, not the request budget). The fleet merge runs
// in backend order once every fetch has finished, so fields that keep the
// last value and the order of newly seen keys do not depend on which
// backend answered first.
func (g *Gateway) Stats() FleetStats {
	var out FleetStats
	out.Gateway, out.Backends = g.edgeStats()
	out.BackendStats = map[string]*server.StatsResponse{}

	fetched := make([]*server.StatsResponse, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An unreachable backend stays nil: listed, not merged.
			fetched[i], _ = g.fetchStats(b)
		}()
	}
	wg.Wait()

	for i, st := range fetched {
		out.BackendStats[g.backends[i].name] = st
		if st == nil {
			continue
		}
		out.Rejected = append(out.Rejected, FleetRejected{
			Backend:     g.backends[i].name,
			Rejected429: st.Server.Rejected,
			Timeouts503: st.Server.Timeouts,
			Draining503: st.Server.Draining,
			Failures5xx: st.Server.Failures,
		})
		out.Fleet.Backends++
		out.Fleet.Merge(*st)
	}
	slices.SortFunc(out.Rejected, func(a, b FleetRejected) int { return strings.Compare(a.Backend, b.Backend) })
	return out
}

// fetchStats pulls one backend's /v1/stats. A draining backend answers
// stats too, so a node mid-migration stays observable.
func (g *Gateway) fetchStats(b *backend) (*server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout*4)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	obs.Reply(w, http.StatusOK, g.Stats())
}

// BackendsResponse is the /v1/admin/backends body: probe/ring state at a
// glance, including how a 1024-key sample spreads over the ring.
type BackendsResponse struct {
	Backends []BackendStatus `json:"backends"`
	Spread   map[string]int  `json:"ring_spread_1024"`
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	var out BackendsResponse
	_, out.Backends = g.edgeStats()
	out.Spread = map[string]int{}
	for i, n := range g.ring.Spread(1024) {
		out.Spread[g.backends[g.resolve(i)].name] += n
	}
	obs.Reply(w, http.StatusOK, out)
}
