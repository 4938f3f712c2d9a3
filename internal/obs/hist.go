package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of doubling buckets. With base 1000ns the
// last finite bound is 1000<<30 ns ≈ 18 minutes; anything above lands
// in the implicit +Inf bucket.
const histBuckets = 31

// Histogram is a log-bucketed histogram: bucket i counts observations
// v with v <= base<<i; larger values count only toward +Inf.
// Observations and reads are lock-free; a scrape taken during
// concurrent observation sees each bucket atomically (totals may trail
// the buckets by in-flight observations, which Prometheus tolerates).
type Histogram struct {
	name    string
	base    int64
	scale   float64
	buckets [histBuckets]atomic.Int64
	inf     atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value (nanoseconds for duration histograms).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if i := h.bucketOf(v); i < histBuckets {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// bucketOf returns the index of the smallest bucket whose bound is
// >= v, or histBuckets when v exceeds every finite bound.
func (h *Histogram) bucketOf(v int64) int {
	q := (v + h.base - 1) / h.base // ceil(v/base), in units of base
	if q <= 1 {
		return 0
	}
	return bits.Len64(uint64(q - 1)) // smallest i with 1<<i >= q
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values (pre-scale units).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bound returns the upper bound of bucket i in pre-scale units.
func (h *Histogram) Bound(i int) int64 { return h.base << uint(i) }

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// returning the upper bound of the bucket containing it in pre-scale
// units — an upper-bound estimate, coarse by at most the bucket ratio
// of 2. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return h.Bound(i)
		}
	}
	// Landed in +Inf: report the largest finite bound.
	return h.Bound(histBuckets - 1)
}
