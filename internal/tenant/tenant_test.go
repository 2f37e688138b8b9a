package tenant

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func testRegistry(t *testing.T, opts ...Option) *Registry {
	t.Helper()
	tiers := []TierSpec{
		{Name: "gold"}, // unlimited, never shed early
		{Name: "silver", Rate: 100, Burst: 5, ShedAt: 0.75},
		{Name: "free", Rate: 2, Burst: 2, Quota: 10, ShedAt: 0.25},
	}
	r, err := NewRegistry(tiers, map[string]string{
		"tok-gold":   "gold",
		"tok-silver": "silver",
		"tok-free":   "free",
	}, "free", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLookup(t *testing.T) {
	r := testRegistry(t)
	if ten, tier := r.Lookup("tok-gold"); ten != "tok-gold" || tier != "gold" {
		t.Fatalf("gold lookup: %q %q", ten, tier)
	}
	if ten, tier := r.Lookup("nobody"); ten != "anon" || tier != "free" {
		t.Fatalf("unknown lookup: %q %q", ten, tier)
	}
	if ten, tier := r.Lookup(""); ten != "anon" || tier != "free" {
		t.Fatalf("empty lookup: %q %q", ten, tier)
	}
}

func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	r := testRegistry(t, WithClock(func() time.Time { return now }))

	// free: burst 2 at rate 2/s. Two admits, then rate_limit.
	for i := 0; i < 2; i++ {
		if d := r.Admit("tok-free", 0, 64); !d.OK {
			t.Fatalf("admit %d rejected: %+v", i, d)
		}
	}
	d := r.Admit("tok-free", 0, 64)
	if d.OK || d.Status != 429 || d.Reason != ReasonRateLimit || d.RetryAfter < 1 {
		t.Fatalf("want 429 rate_limit with Retry-After: %+v", d)
	}
	// Refill after a second.
	now = now.Add(time.Second)
	if d := r.Admit("tok-free", 0, 64); !d.OK {
		t.Fatalf("post-refill admit rejected: %+v", d)
	}
	// Gold is unlimited.
	for i := 0; i < 1000; i++ {
		if d := r.Admit("tok-gold", 0, 64); !d.OK {
			t.Fatalf("gold rejected at %d: %+v", i, d)
		}
	}
}

func TestQuota(t *testing.T) {
	now := time.Unix(1000, 0)
	r := testRegistry(t,
		WithClock(func() time.Time { return now }),
		WithQuotaWindow(time.Hour))

	// free quota is 10/window; pace under the rate limit.
	for i := 0; i < 10; i++ {
		if d := r.Admit("tok-free", 0, 64); !d.OK {
			t.Fatalf("admit %d rejected: %+v", i, d)
		}
		now = now.Add(time.Second)
	}
	d := r.Admit("tok-free", 0, 64)
	if d.OK || d.Reason != ReasonQuota || d.Status != 429 {
		t.Fatalf("want 429 quota: %+v", d)
	}
	if d.RetryAfter < 1 || d.RetryAfter > 3600 {
		t.Fatalf("quota Retry-After out of range: %d", d.RetryAfter)
	}
	// A fresh window resets the budget.
	now = now.Add(time.Hour)
	if d := r.Admit("tok-free", 0, 64); !d.OK {
		t.Fatalf("post-window admit rejected: %+v", d)
	}
}

func TestShedLowestTierFirst(t *testing.T) {
	r := testRegistry(t)
	// Queue 50% full: free (shed at 25%) rejected, silver (75%) and gold
	// admitted.
	if d := r.Admit("tok-free", 32, 64); d.OK || d.Reason != ReasonShed {
		t.Fatalf("free should shed at 50%%: %+v", d)
	}
	if d := r.Admit("tok-silver", 32, 64); !d.OK {
		t.Fatalf("silver shed too early: %+v", d)
	}
	if d := r.Admit("tok-gold", 32, 64); !d.OK {
		t.Fatalf("gold shed too early: %+v", d)
	}
	// Queue 90% full: silver sheds too, gold still admitted.
	if d := r.Admit("tok-silver", 58, 64); d.OK || d.Reason != ReasonShed {
		t.Fatalf("silver should shed at 90%%: %+v", d)
	}
	if d := r.Admit("tok-gold", 58, 64); !d.OK {
		t.Fatalf("gold shed below full: %+v", d)
	}
}

func TestStatsOrderAndCounts(t *testing.T) {
	r := testRegistry(t)
	r.Admit("tok-gold", 0, 64)
	r.Admit("tok-free", 32, 64) // shed
	st := r.Stats()
	if len(st) != 3 {
		t.Fatalf("want 3 tiers, got %d", len(st))
	}
	// Ordered lowest ShedAt first: free, silver, gold.
	if st[0].Tier != "free" || st[1].Tier != "silver" || st[2].Tier != "gold" {
		t.Fatalf("order: %+v", st)
	}
	if st[0].RejectedShed != 1 || st[2].Admitted != 1 {
		t.Fatalf("counts: %+v", st)
	}
}

// TestMergeStats pins the fleet merge of tier ledgers that TierStats'
// merge tags declare: keyed by tier, summed, in first-seen order.
func TestMergeStats(t *testing.T) {
	a := []TierStats{{Tier: "free", Admitted: 3}, {Tier: "gold", Admitted: 1}}
	b := []TierStats{{Tier: "gold", Admitted: 2, RejectedShed: 1}, {Tier: "new", Admitted: 5}}
	var m []TierStats
	obs.Merge(&m, a)
	obs.Merge(&m, b)
	if len(m) != 3 || m[1].Admitted != 3 || m[1].RejectedShed != 1 || m[2].Tier != "new" {
		t.Fatalf("merge: %+v", m)
	}
}

func TestParseTiersAndTenants(t *testing.T) {
	tiers, err := ParseTiers("gold:0:0:0;free:50:10:1000:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[1].Rate != 50 || tiers[1].Burst != 10 ||
		tiers[1].Quota != 1000 || tiers[1].ShedAt != 0.5 {
		t.Fatalf("tiers: %+v", tiers)
	}
	if _, err := ParseTiers("bad"); err == nil {
		t.Fatal("malformed tier accepted")
	}
	toks, err := ParseTenants("a=gold, b=free")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks["a"] != "gold" || toks["b"] != "free" {
		t.Fatalf("tenants: %+v", toks)
	}
	if _, err := ParseTenants("a=gold,a=free"); err == nil {
		t.Fatal("duplicate token accepted")
	}
	if _, err := NewRegistry(tiers, map[string]string{"x": "nosuch"}, ""); err == nil {
		t.Fatal("undeclared tier accepted")
	}
}

func TestAnonSharesOneBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	r := testRegistry(t, WithClock(func() time.Time { return now }))
	// Two different unknown tokens share the anon bucket (burst 2).
	if d := r.Admit("stranger-1", 0, 64); !d.OK {
		t.Fatalf("first anon rejected: %+v", d)
	}
	if d := r.Admit("stranger-2", 0, 64); !d.OK {
		t.Fatalf("second anon rejected: %+v", d)
	}
	if d := r.Admit("stranger-3", 0, 64); d.OK {
		t.Fatal("anon bucket not shared: third stranger admitted past burst")
	}
}
