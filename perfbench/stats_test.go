package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending: quantile must sort
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.25, 25}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (sample{7}).median(); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if !math.IsNaN(sample(nil).median()) {
		t.Error("median of an empty sample should be NaN")
	}
}

// The p99 of n samples is reported only when at least ten samples lie
// beyond it, which takes n >= 1000.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		ok        bool
	}{
		{100, 1, false},
		{999, 9, false},
		{1000, 10, true},
		{1899, 18, true},
		{2000, 20, true},
	} {
		if got := beyond(c.n, 0.99); got != c.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.beyond)
		}
		v, err := seq(c.n).tail(0.99)
		if (err == nil) != c.ok {
			t.Errorf("tail(0.99) of %d samples: err = %v, want ok = %v", c.n, err, c.ok)
			continue
		}
		if c.ok && v != float64(c.n-c.beyond) {
			t.Errorf("tail(0.99) of 1..%d = %v, want %v", c.n, v, c.n-c.beyond)
		}
	}
	if beyond(0, 0.99) != 0 {
		t.Error("beyond of an empty sample should be 0")
	}
}

func TestMean(t *testing.T) {
	if got := seq(4).mean(); got != 2.5 {
		t.Errorf("mean of 1..4 = %v, want 2.5", got)
	}
	if !math.IsNaN(sample(nil).mean()) {
		t.Error("mean of an empty sample should be NaN")
	}
}
