package main

import (
	"math"
	"sort"
)

// rng is splitmix64: the benchmark owns its generator so a schedule
// depends on the seed alone, not on the Go release's math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix64 is the splitmix64 finalizer, used both as the generator's
// output function and as the hash behind every digest.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rowDigest hashes one (key, value) pair. Result digests are sums of
// row digests, so they do not depend on row order.
func rowDigest(k, v int64) uint64 { return mix64(uint64(k)*0x9e3779b97f4a7c15 ^ mix64(uint64(v))) }

// quantile returns the q-quantile of xs by the nearest-rank rule
// (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the mean of the middle pair for even lengths, so a
// median of round values moves smoothly when one round shifts.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method) — the
// driver's spread measure.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs(at(0.75)-at(0.25)) / math.Abs(m)
}

func toFloats(ns []int64, scale float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) * scale
	}
	return out
}
