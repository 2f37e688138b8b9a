// Package tenant implements the admission-control subsystem in front of
// the serving plane (docs/BATCHING.md §Tenant tiers): a static token →
// tier mapping, per-tenant token-bucket rate limits, per-tenant daily
// quotas, and queue-depth load shedding that sheds the lowest tier first.
//
// Admission is entirely untrusted bookkeeping — it decides who gets to
// spend enclave crossings, never what the enclave signs — so it lives
// outside the TCB, like the rest of the HTTP plane.
package tenant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rejection reasons, surfaced in the X-Komodo-Reject response header so
// load generators and operators can tell rejection classes apart
// (429 rate_limit / quota / shed / queue_full vs 503 drain / timeout).
const (
	ReasonRateLimit = "rate_limit"
	ReasonQuota     = "quota"
	ReasonShed      = "shed"
)

// TierSpec declares one tier's admission parameters.
type TierSpec struct {
	Name string `json:"name"`
	// Rate is the sustained per-tenant request rate (requests/second)
	// of the token bucket; Burst is its capacity. Rate <= 0 means
	// unlimited.
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
	// Quota is the per-tenant request budget per quota window (default
	// window 24h). 0 means unlimited.
	Quota uint64 `json:"quota"`
	// ShedAt is the queue-fullness fraction [0,1] above which this
	// tier's requests are shed. Tiers are ranked by ShedAt: the lowest
	// threshold sheds first. 0 defaults to 1 (shed only when full).
	ShedAt float64 `json:"shed_at"`
}

// TierStats is the per-tier accounting exported through /v1/stats and
// /metrics, and merged fleet-wide by the gateway keyed by tier.
type TierStats struct {
	Tier          string `json:"tier" prom:"tier" merge:"key"`
	Tenants       int    `json:"tenants"`
	Admitted      uint64 `json:"admitted" prom:"komodo_tenant_requests_total,result=admitted" help:"Admission decisions by tier and result."`
	RejectedRate  uint64 `json:"rejected_rate_limit" prom:"komodo_tenant_requests_total,result=rate_limit"`
	RejectedQuota uint64 `json:"rejected_quota" prom:"komodo_tenant_requests_total,result=quota"`
	RejectedShed  uint64 `json:"rejected_shed" prom:"komodo_tenant_requests_total,result=shed"`
}

// Decision is the outcome of one admission check.
type Decision struct {
	OK         bool
	Tenant     string // tenant label (token, or "anon")
	Tier       string
	Status     int    // HTTP status when !OK (429 or 503)
	Reason     string // Reason* constant when !OK
	RetryAfter int    // seconds, for the Retry-After header
}

type tier struct {
	spec TierSpec
	// counters, guarded by Registry.mu
	admitted      uint64
	rejectedRate  uint64
	rejectedQuota uint64
	rejectedShed  uint64
}

type bucket struct {
	tokens      float64
	last        time.Time
	used        uint64 // requests admitted in the current quota window
	windowStart time.Time
}

// Registry maps static tokens to tiers and enforces admission. Safe for
// concurrent use.
type Registry struct {
	mu          sync.Mutex
	tiers       map[string]*tier
	order       []string          // tier names, lowest ShedAt first
	tokens      map[string]string // token -> tier name
	defaultTier string
	quotaWindow time.Duration
	buckets     map[string]*bucket // tenant label -> bucket
	now         func() time.Time
}

// Option configures a Registry.
type Option func(*Registry)

// WithQuotaWindow overrides the 24h quota window (tests, smoke scripts).
func WithQuotaWindow(d time.Duration) Option {
	return func(r *Registry) { r.quotaWindow = d }
}

// WithClock injects a clock (tests).
func WithClock(now func() time.Time) Option {
	return func(r *Registry) { r.now = now }
}

// NewRegistry builds a registry. Every token must name a declared tier;
// defaultTier (used for unknown/missing tokens) must be declared too, or
// empty to reject nothing — if empty, the first declared tier is used.
func NewRegistry(tiers []TierSpec, tokens map[string]string, defaultTier string, opts ...Option) (*Registry, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("tenant: no tiers declared")
	}
	r := &Registry{
		tiers:       make(map[string]*tier, len(tiers)),
		tokens:      make(map[string]string, len(tokens)),
		buckets:     make(map[string]*bucket),
		quotaWindow: 24 * time.Hour,
		now:         time.Now,
	}
	for _, ts := range tiers {
		if ts.Name == "" {
			return nil, fmt.Errorf("tenant: tier with empty name")
		}
		if _, dup := r.tiers[ts.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tier %q", ts.Name)
		}
		if ts.ShedAt <= 0 || ts.ShedAt > 1 {
			ts.ShedAt = 1
		}
		if ts.Rate > 0 && ts.Burst <= 0 {
			ts.Burst = ts.Rate
		}
		r.tiers[ts.Name] = &tier{spec: ts}
		r.order = append(r.order, ts.Name)
	}
	sort.SliceStable(r.order, func(i, j int) bool {
		return r.tiers[r.order[i]].spec.ShedAt < r.tiers[r.order[j]].spec.ShedAt
	})
	for tok, name := range tokens {
		if _, ok := r.tiers[name]; !ok {
			return nil, fmt.Errorf("tenant: token %q names undeclared tier %q", tok, name)
		}
		r.tokens[tok] = name
	}
	if defaultTier == "" {
		defaultTier = tiers[0].Name
	}
	if _, ok := r.tiers[defaultTier]; !ok {
		return nil, fmt.Errorf("tenant: default tier %q not declared", defaultTier)
	}
	r.defaultTier = defaultTier
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Lookup resolves a token to its (tenant label, tier name) without
// consuming admission budget. Unknown or empty tokens map to the shared
// "anon" tenant in the default tier.
// DefaultTier reports the tier used for unknown or absent tokens.
func (r *Registry) DefaultTier() string { return r.defaultTier }

func (r *Registry) Lookup(token string) (tenant, tierName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(token)
}

func (r *Registry) lookupLocked(token string) (string, string) {
	if name, ok := r.tokens[token]; ok {
		return token, name
	}
	return "anon", r.defaultTier
}

// Admit runs the full admission pipeline for one request: shed check
// (queue fullness vs the tier's ShedAt), then quota, then rate limit.
// queueLen/queueCap describe the server's admission queue occupancy.
func (r *Registry) Admit(token string, queueLen, queueCap int) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()

	label, name := r.lookupLocked(token)
	ti := r.tiers[name]
	d := Decision{Tenant: label, Tier: name}

	// 1. Load shedding, lowest tier first: reject before consuming any
	// budget when the queue is fuller than this tier is entitled to.
	if queueCap > 0 && ti.spec.ShedAt < 1 {
		if frac := float64(queueLen) / float64(queueCap); frac >= ti.spec.ShedAt {
			ti.rejectedShed++
			d.Status, d.Reason, d.RetryAfter = 429, ReasonShed, 1
			return d
		}
	}

	b := r.buckets[label]
	now := r.now()
	if b == nil {
		b = &bucket{tokens: ti.spec.Burst, last: now, windowStart: now}
		r.buckets[label] = b
	}

	// 2. Daily quota.
	if ti.spec.Quota > 0 {
		if now.Sub(b.windowStart) >= r.quotaWindow {
			b.windowStart = now
			b.used = 0
		}
		if b.used >= ti.spec.Quota {
			ti.rejectedQuota++
			retry := int(r.quotaWindow.Seconds() - now.Sub(b.windowStart).Seconds())
			if retry < 1 {
				retry = 1
			}
			d.Status, d.Reason, d.RetryAfter = 429, ReasonQuota, retry
			return d
		}
	}

	// 3. Token-bucket rate limit.
	if ti.spec.Rate > 0 {
		b.tokens += now.Sub(b.last).Seconds() * ti.spec.Rate
		if b.tokens > ti.spec.Burst {
			b.tokens = ti.spec.Burst
		}
		b.last = now
		if b.tokens < 1 {
			ti.rejectedRate++
			retry := int((1 - b.tokens) / ti.spec.Rate)
			if retry < 1 {
				retry = 1
			}
			d.Status, d.Reason, d.RetryAfter = 429, ReasonRateLimit, retry
			return d
		}
		b.tokens--
	}

	b.used++
	ti.admitted++
	d.OK = true
	return d
}

// Stats snapshots per-tier accounting, ordered lowest tier first.
func (r *Registry) Stats() []TierStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	tenants := make(map[string]int)
	for tok := range r.tokens {
		tenants[r.tokens[tok]]++
	}
	out := make([]TierStats, 0, len(r.order))
	for _, name := range r.order {
		ti := r.tiers[name]
		out = append(out, TierStats{
			Tier:          name,
			Tenants:       tenants[name],
			Admitted:      ti.admitted,
			RejectedRate:  ti.rejectedRate,
			RejectedQuota: ti.rejectedQuota,
			RejectedShed:  ti.rejectedShed,
		})
	}
	return out
}

// ParseTiers parses the -tiers flag syntax:
//
//	name:rate:burst:quota[:shedat];name:rate:burst:quota[:shedat];...
//
// e.g. "gold:0:0:0;free:50:10:1000:0.5" declares an unlimited gold tier
// and a free tier at 50 req/s (burst 10), 1000 requests/window, shed at
// 50% queue fullness. Zero disables the corresponding limit.
func ParseTiers(s string) ([]TierSpec, error) {
	var out []TierSpec
	for _, ent := range strings.Split(s, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 4 || len(parts) > 5 {
			return nil, fmt.Errorf("tenant: bad tier %q (want name:rate:burst:quota[:shedat])", ent)
		}
		ts := TierSpec{Name: parts[0]}
		var err error
		if ts.Rate, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("tenant: bad rate in %q: %v", ent, err)
		}
		if ts.Burst, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return nil, fmt.Errorf("tenant: bad burst in %q: %v", ent, err)
		}
		q, err := strconv.ParseUint(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant: bad quota in %q: %v", ent, err)
		}
		ts.Quota = q
		if len(parts) == 5 {
			if ts.ShedAt, err = strconv.ParseFloat(parts[4], 64); err != nil {
				return nil, fmt.Errorf("tenant: bad shedat in %q: %v", ent, err)
			}
		}
		out = append(out, ts)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenant: no tiers in %q", s)
	}
	return out, nil
}

// ParseTenants parses the -tenants flag syntax: "token=tier,token=tier".
func ParseTenants(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		tok, name, ok := strings.Cut(ent, "=")
		if !ok || tok == "" || name == "" {
			return nil, fmt.Errorf("tenant: bad tenant %q (want token=tier)", ent)
		}
		if _, dup := out[tok]; dup {
			return nil, fmt.Errorf("tenant: duplicate token %q", tok)
		}
		out[tok] = name
	}
	return out, nil
}
