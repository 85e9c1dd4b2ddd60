package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it: p99 is reported only from at least 1,000 samples.
const minBeyond = 10

// sample is a set of measurements of one quantity, in the unit it is
// reported in.
type sample []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest value with at least a share q of the sample at or below it.
// It returns NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the zero-based nearest-rank index of quantile q in a
// sorted sample of n values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond returns how many samples of n lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tail returns the q-quantile, or an error when fewer than minBeyond
// samples lie beyond it: such a percentile is one unlucky sample, not a
// tail.
func (s sample) tail(q float64) (float64, error) {
	if b := beyond(len(s), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(s), b, minBeyond)
	}
	return s.quantile(q), nil
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}
