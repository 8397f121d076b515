package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 128 linear
// buckets per power of two, so a percentile is exact to under 1% of its
// value whatever the sample count. The churn reader completes tens of
// thousands of requests a second; keeping every sample would grow the heap
// of the process being measured, and a fixed-size histogram does not.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 33 // values up to 2^39 ns, about nine minutes
	histBuckets = histOctaves * histSub
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - histSubBits - 1 // ns>>exp lies in [histSub, 2*histSub)
	b := (exp+1)*histSub + int(ns>>uint(exp)) - histSub
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketBounds returns the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub - 1
	m := uint64(b%histSub + histSub)
	return float64(m << uint(exp)), float64((m + 1) << uint(exp))
}

func (h *hist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it; NaN for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.n)
}

// quartiles returns the 25th, 50th and 75th percentile of vals by linear
// interpolation between order statistics; vals is not modified.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (s[i+1]-s[i])*(pos-float64(i))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}
