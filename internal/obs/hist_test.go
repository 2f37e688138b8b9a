package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsLogLinear(t *testing.T) {
	bounds := BucketBoundsNS()
	if len(bounds) < 20 {
		t.Fatalf("suspiciously few buckets: %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, bounds[i], bounds[i-1])
		}
		ratio := float64(bounds[i]) / float64(bounds[i-1])
		if ratio > 1.51 {
			t.Fatalf("bucket %d grows by %.2fx — relative error unbounded", i, ratio)
		}
	}
	if NumLatencyBuckets != len(bounds)+1 {
		t.Fatalf("NumLatencyBuckets %d vs %d bounds", NumLatencyBuckets, len(bounds))
	}
}

func TestLatencyBucketPlacement(t *testing.T) {
	bounds := BucketBoundsNS()
	for i, b := range bounds {
		if got := latencyBucket(b); got != i {
			t.Fatalf("bound %d placed in bucket %d, want %d", b, got, i)
		}
		if got := latencyBucket(b + 1); got != i+1 {
			t.Fatalf("bound+1 %d placed in bucket %d, want %d", b+1, got, i+1)
		}
	}
	if got := latencyBucket(0); got != 0 {
		t.Fatalf("zero placed in bucket %d", got)
	}
	if got := latencyBucket(math.MaxUint64); got != len(bounds) {
		t.Fatalf("max placed in bucket %d, want overflow %d", got, len(bounds))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms uniformly: quantiles are known to bucket resolution.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 1000*time.Millisecond {
		t.Fatalf("max %v", h.Max())
	}
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := h.Quantile(q)
		// Log-linear buckets bound relative error at 50% of a bucket
		// width; allow 30% slack either side.
		lo, hi := time.Duration(float64(want)*0.7), time.Duration(float64(want)*1.3)
		if got < lo || got > hi {
			t.Fatalf("q%.2f = %v, want within [%v, %v]", q, got, lo, hi)
		}
	}
	check(0.50, 500*time.Millisecond)
	check(0.95, 950*time.Millisecond)
	check(0.99, 990*time.Millisecond)
	if h.Mean() < 400*time.Millisecond || h.Mean() > 600*time.Millisecond {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Fatal("nil histogram not inert")
	}
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram quantile/mean not zero")
	}
	h.Observe(-time.Second) // clamps to zero, still counted
	if h.Count() != 1 {
		t.Fatalf("negative sample not counted: %d", h.Count())
	}
	// A single huge sample lands in the overflow bucket; the quantile is
	// capped by the observed max, not the (unbounded) bucket.
	h2 := NewHistogram()
	h2.Observe(5 * time.Minute)
	if q := h2.Quantile(0.99); q > 5*time.Minute {
		t.Fatalf("overflow quantile %v exceeds observed max", q)
	}
}

// TestQuantilesNeverExceedMax: 20 samples of 100–119 µs share one
// bucket, (98.3 µs, 131.1 µs]. Interpolating to the bucket's upper bound
// put p99 near 129 µs, above the largest sample; every quantile must now
// stay within [smallest bucket bound, max] and rise with q.
func TestQuantilesNeverExceedMax(t *testing.T) {
	h := NewHistogram()
	for i := range 20 {
		h.Observe(time.Duration(100+i) * time.Microsecond)
	}
	max := h.Max()
	prev := time.Duration(0)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got > max || got < 98*time.Microsecond || got < prev {
			t.Fatalf("q%.2f = %v, want within [98µs, max %v] and >= q below (%v)", q, got, max, prev)
		}
		prev = got
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const writers, each = 8, 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
				if i%100 == 0 {
					h.Snapshot()
					h.Quantile(0.5)
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*each {
		t.Fatalf("count %d", s.Count)
	}
	var sum uint64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucketed %d of %d samples", sum, s.Count)
	}
}

func TestLatencyVec(t *testing.T) {
	v := NewLatencyVec()
	v.Observe("/v1/attest", "ok", 2*time.Millisecond)
	v.Observe("/v1/attest", "ok", 4*time.Millisecond)
	v.Observe("/v1/attest", "rejected", time.Millisecond)
	v.Observe("/v1/notary/sign", "ok", 8*time.Millisecond)
	if h := v.Get("/v1/attest", "ok"); h == nil || h.Count() != 2 {
		t.Fatalf("attest/ok series: %+v", h)
	}
	if v.Get("/v1/attest", "missing") != nil {
		t.Fatal("phantom series")
	}
	var order []string
	v.Each(func(ep, oc string, h *Histogram) { order = append(order, ep+"|"+oc) })
	want := []string{"/v1/attest|ok", "/v1/attest|rejected", "/v1/notary/sign|ok"}
	if len(order) != len(want) {
		t.Fatalf("series: %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("series order %v, want %v", order, want)
		}
	}
	var nilV *LatencyVec
	nilV.Observe("x", "y", time.Second)
	nilV.Each(func(string, string, *Histogram) { t.Fatal("nil vec visited") })
}
