package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The latency histogram uses fixed log-linear buckets: two linear
// sub-buckets per octave (×1, ×1.5) from 8.192µs up to ~34s, plus an
// unbounded overflow bucket. Log-linear keeps relative error bounded
// (≤ 25% within a bucket) across five orders of magnitude while the
// bucket count stays small enough to export to Prometheus per
// endpoint×outcome series. The bounds are fixed at package init, so every
// histogram in the process shares one table and snapshots merge by
// position.
var bucketBoundsNS = makeBounds()

func makeBounds() []uint64 {
	var b []uint64
	for oct := uint64(8192); oct <= 1<<35; oct *= 2 {
		b = append(b, oct, oct+oct/2)
	}
	return b
}

// NumLatencyBuckets is the number of histogram counters (bounds plus the
// overflow bucket).
var NumLatencyBuckets = len(bucketBoundsNS) + 1

// BucketBoundsNS returns a copy of the shared upper-bound table in
// nanoseconds (the overflow bucket has no bound).
func BucketBoundsNS() []uint64 {
	return append([]uint64(nil), bucketBoundsNS...)
}

// latencyBucket returns the counter index for a duration: the first
// bucket whose upper bound is >= v, or the overflow bucket.
func latencyBucket(v uint64) int {
	return sort.Search(len(bucketBoundsNS), func(i int) bool { return v <= bucketBoundsNS[i] })
}

// Histogram is a lock-free wall-clock latency histogram: Observe is a
// handful of atomic adds (plus a binary search over the fixed bounds
// table), safe for any number of concurrent writers and readers.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
	buckets []atomic.Uint64
}

// NewHistogram returns an empty histogram over the shared bounds table.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, NumLatencyBuckets)}
}

// Observe records one latency sample. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[latencyBucket(ns)].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Max returns the largest sample observed.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNS.Load())
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank. The estimate is bounded by
// the bucket's true range, so its relative error is bounded by the
// log-linear bucket width, and it never exceeds the largest sample.
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// HistSnapshot is a point-in-time copy of a histogram's counters, in
// bucket-table position order (merge snapshots by summing positions).
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   uint64   `json:"sum_ns"`
	MaxNS   uint64   `json:"max_ns"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot copies the counters. Reads are atomic per counter but not one
// transaction; under concurrent writes the snapshot is consistent enough
// for reporting (sum of buckets may trail Count by in-flight observes).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	s.Buckets = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Merge folds another snapshot into this one by bucket position — valid
// because every histogram in every process shares the same fixed bounds
// table (see bucketBoundsNS). This is how a fleet front combines
// per-backend latency distributions into one view whose quantiles are
// computed over the union of samples, not averaged per node (averaging
// quantiles is wrong whenever the nodes' distributions differ).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	if len(s.Buckets) < len(o.Buckets) {
		s.Buckets = append(s.Buckets, make([]uint64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile from the snapshot (see
// Histogram.Quantile).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank among the bucketed samples (their total can trail Count under
	// concurrent writes; quantiles over what the buckets actually hold).
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = bucketBoundsNS[i-1]
		}
		// The bucket's samples lie in (lo, hi], and none above the
		// recorded max, so interpolate no further than that.
		hi := s.MaxNS
		if i < len(bucketBoundsNS) {
			hi = min(hi, bucketBoundsNS[i])
		}
		if hi < lo {
			hi = lo
		}
		// Interpolate by rank position within the bucket.
		frac := float64(rank-cum) / float64(c)
		return time.Duration(float64(lo) + frac*float64(hi-lo))
	}
	return time.Duration(s.MaxNS)
}

// LatencyVec is a set of histograms keyed by (endpoint, outcome). Lookup
// of an existing series takes a read lock only; the hot path inside the
// histogram itself is lock-free.
type LatencyVec struct {
	mu sync.RWMutex
	m  map[[2]string]*Histogram
}

// NewLatencyVec returns an empty vector.
func NewLatencyVec() *LatencyVec {
	return &LatencyVec{m: map[[2]string]*Histogram{}}
}

// Observe records a sample into the (endpoint, outcome) series, creating
// it on first use.
func (v *LatencyVec) Observe(endpoint, outcome string, d time.Duration) {
	if v == nil {
		return
	}
	key := [2]string{endpoint, outcome}
	v.mu.RLock()
	h := v.m[key]
	v.mu.RUnlock()
	if h == nil {
		v.mu.Lock()
		if h = v.m[key]; h == nil {
			h = NewHistogram()
			v.m[key] = h
		}
		v.mu.Unlock()
	}
	h.Observe(d)
}

// Get returns the (endpoint, outcome) series, or nil.
func (v *LatencyVec) Get(endpoint, outcome string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m[[2]string{endpoint, outcome}]
}

// Each visits every series in deterministic (endpoint, outcome) order.
func (v *LatencyVec) Each(f func(endpoint, outcome string, h *Histogram)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([][2]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		v.mu.RLock()
		h := v.m[k]
		v.mu.RUnlock()
		if h != nil {
			f(k[0], k[1], h)
		}
	}
}
