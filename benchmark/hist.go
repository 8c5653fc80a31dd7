package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of non-negative nanosecond values: 64
// sub-buckets per power of two (relative error under 1.6 %), with
// quantiles interpolated inside a bucket so that two runs never report
// an identical figure by quantisation alone. The benchmark keeps its own
// histogram rather than internal/metrics' so that a change to the
// program's histogram cannot move the instrument that measures it.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/histSub - 1 + histSubBits)
	sub := uint64(i % histSub)
	width := uint64(1) << (exp - histSubBits)
	l := uint64(1)<<exp + sub*width
	return float64(l), float64(l + width)
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, 0 when
// the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			v := lo + (hi-lo)*(rank-seen)/float64(c)
			return math.Min(v, float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// above returns the sum, over the recorded values greater than x, of their
// excess over x, taking each bucket at its midpoint.
func (h *hist) above(x float64) float64 {
	var sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := histBounds(i)
		if mid := (lo + hi) / 2; mid > x {
			sum += float64(c) * (mid - x)
		}
	}
	return sum
}
