package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct{ n, want int }{
		{10, 50}, {19, 50}, {21, 52}, {100, 90}, {199, 94}, {200, 95}, {600, 98}, {1000, 99}, {100000, 99},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestRelSpread(t *testing.T) {
	// Quartiles of 1..9 are 3 and 7 around a median of 5.
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.8", got)
	}
	// Fewer than four values: the full range.
	if got := relSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread of three = %v, want 0.2", got)
	}
}
