package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which
// it sorts in place. The nearest-rank rule always returns a sample, so a
// p99 over n samples has exactly n − ⌈0.99·n⌉ samples beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0: a layer that did no work (no
// rejections, no journal) reports zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span accumulates the time spent in one layer call across many ops, so
// that the layer's mean per op is total/count. The benchmark records spans
// only around calls into the layer's public function.
type span struct {
	total time.Duration
	count int
}

func (s *span) add(d time.Duration) {
	s.total += d
	s.count++
}

// meanUS is the mean span duration in microseconds (0 for an empty span).
func (s *span) meanUS() float64 {
	return ratio(float64(s.total)/float64(time.Microsecond), float64(s.count))
}

// perOpUS spreads the span's total over n ops: the layer's contribution to
// the mean op even when only some ops enter it (evidence runs only on
// rejections).
func (s *span) perOpUS(n int) float64 {
	return ratio(float64(s.total)/float64(time.Microsecond), float64(n))
}

// selfTime is a layer's own time: its mean per op minus the mean per op of
// the layers it calls. Means subtract because every span here is averaged
// over the same ops.
func selfTime(parent float64, children ...float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}
