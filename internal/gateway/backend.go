package gateway

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// BackendState is the probe state machine's position for one backend.
type BackendState int32

const (
	// StateUp: routable. Backends start here (optimistically) so traffic
	// flows before the first probe lands; a dead backend is demoted by
	// the first failed probe or the first connection error on the
	// request path, whichever comes first.
	StateUp BackendState = iota
	// StateDown: not routable; shards it owns fail over along the ring.
	// Promoted back to StateUp after Config.UpAfter consecutive probe
	// successes.
	StateDown
)

func (s BackendState) String() string {
	if s == StateDown {
		return "down"
	}
	return "up"
}

// BackendSpec names one komodo-serve backend.
type BackendSpec struct {
	Name string // stable label ("" derives b0, b1, ... from position)
	URL  string // base URL, e.g. http://127.0.0.1:8787
}

// backend is the gateway's per-node bookkeeping: identity, probe state,
// outcome counters and the latency histogram behind the per-backend
// p50/p95/p99 the fleet stats report.
type backend struct {
	name string
	url  string // base URL without trailing slash

	state       atomic.Int32
	transitions atomic.Uint64 // up<->down flips
	probes      atomic.Uint64
	probeFails  atomic.Uint64
	lastProbeNS atomic.Int64 // unix nanos of the last completed probe

	// consecOK/consecFail are the hysteresis streaks the probe loop
	// counts against UpAfter/DownAfter. They live on the backend (not in
	// the loop) because they must reset on transitions the loop didn't
	// make: a request-path demotion via observe() invalidates any success
	// streak the prober had built, else one post-demotion probe success
	// would instantly re-promote a node whose serving path is failing.
	consecOK   atomic.Int32
	consecFail atomic.Int32

	inflight atomic.Int64 // proxied requests currently outstanding

	requests  atomic.Uint64 // proxied requests attempted
	ok        atomic.Uint64 // 2xx
	rejected  atomic.Uint64 // 429 from the backend
	unavail   atomic.Uint64 // 503 from the backend
	badStatus atomic.Uint64 // any other non-2xx
	netErrors atomic.Uint64 // transport failures (no HTTP response)

	lat *obs.Histogram // wall-clock proxied-request latency
}

func newBackend(spec BackendSpec, i int) *backend {
	name := spec.Name
	if name == "" {
		name = "b" + strconv.Itoa(i)
	}
	return &backend{
		name: name,
		url:  strings.TrimRight(spec.URL, "/"),
		lat:  obs.NewHistogram(),
	}
}

// State reads the probe state.
func (b *backend) State() BackendState { return BackendState(b.state.Load()) }

// setState flips the state, counting the transition. Returns true if the
// state actually changed. Any real transition zeroes both hysteresis
// streaks: after a flip — whoever caused it — the probe loop must earn
// the next one from scratch (UpAfter fresh successes to promote,
// DownAfter fresh failures to demote).
func (b *backend) setState(s BackendState) bool {
	if b.state.Swap(int32(s)) != int32(s) {
		b.transitions.Add(1)
		b.consecOK.Store(0)
		b.consecFail.Store(0)
		return true
	}
	return false
}

// observe records one proxied response (or transport failure) for this
// backend.
func (b *backend) observe(status int, dur time.Duration, netErr bool) {
	b.requests.Add(1)
	switch {
	case netErr:
		b.netErrors.Add(1)
		// A transport failure is a stronger down signal than a failed
		// probe — the node is not answering the serving path right now.
		// Demote immediately; the prober promotes it back after UpAfter
		// consecutive healthz successes. Clear the success streak even
		// when already down (no transition): the serving path just
		// failed, so probe successes recorded before this instant no
		// longer argue for promotion.
		b.setState(StateDown)
		b.consecOK.Store(0)
		return
	case status >= 200 && status < 300:
		b.ok.Add(1)
	case status == http.StatusTooManyRequests:
		b.rejected.Add(1)
	case status == http.StatusServiceUnavailable:
		b.unavail.Add(1)
	default:
		b.badStatus.Add(1)
	}
	b.lat.Observe(dur)
}

// BackendStatus is the public per-backend view inside FleetStats. Its
// prom tags define the gateway's per-backend families, labelled by name.
type BackendStatus struct {
	Name  string `json:"name" prom:"backend"`
	URL   string `json:"url"`
	State string `json:"state"`
	// ForwardedTo names the backend this one's shards were migrated to
	// ("" when the backend owns its ring arc).
	ForwardedTo string `json:"forwarded_to,omitempty"`

	Probes      uint64 `json:"probes" prom:"komodo_gateway_backend_probes_total" help:"Health probes sent per backend."`
	ProbeFails  uint64 `json:"probe_fails" prom:"komodo_gateway_backend_probe_fails_total" help:"Failed health probes per backend."`
	Transitions uint64 `json:"transitions" prom:"komodo_gateway_backend_transitions_total" help:"Up/down state flips per backend."`
	LastProbeMS int64  `json:"last_probe_unix_ms,omitempty"`

	InFlight  int64  `json:"in_flight" prom:"komodo_gateway_backend_in_flight" help:"Proxied requests currently outstanding per backend."`
	Requests  uint64 `json:"requests"`
	OK        uint64 `json:"ok" prom:"komodo_gateway_backend_responses_total,result=ok" help:"Proxied responses per backend by result class."`
	Rejected  uint64 `json:"rejected_429" prom:"komodo_gateway_backend_responses_total,result=rejected_429"`
	Unavail   uint64 `json:"unavailable_503" prom:"komodo_gateway_backend_responses_total,result=unavailable_503"`
	BadStatus uint64 `json:"bad_status" prom:"komodo_gateway_backend_responses_total,result=bad_status"`
	NetErrors uint64 `json:"net_errors" prom:"komodo_gateway_backend_responses_total,result=net_error"`

	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

func (b *backend) status() BackendStatus {
	st := BackendStatus{
		Name:        b.name,
		URL:         b.url,
		State:       b.State().String(),
		Probes:      b.probes.Load(),
		ProbeFails:  b.probeFails.Load(),
		Transitions: b.transitions.Load(),
		InFlight:    b.inflight.Load(),
		Requests:    b.requests.Load(),
		OK:          b.ok.Load(),
		Rejected:    b.rejected.Load(),
		Unavail:     b.unavail.Load(),
		BadStatus:   b.badStatus.Load(),
		NetErrors:   b.netErrors.Load(),
	}
	if ns := b.lastProbeNS.Load(); ns > 0 {
		st.LastProbeMS = ns / 1e6
	}
	snap := b.lat.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	st.P50ms, st.P95ms, st.P99ms = ms(snap.Quantile(0.50)), ms(snap.Quantile(0.95)), ms(snap.Quantile(0.99))
	return st
}
