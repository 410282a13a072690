package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between order statistics. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// supportedPercentile returns the highest whole percentile p >= 50 that
// still has at least ten samples beyond it in a sample of n, which is the
// highest tail the sample can support; 50 when even the median cannot be
// backed that way.
func supportedPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// relSpread is the spread of a set of repeated measurements as a share of
// their median: the distance between the first and third quartile when
// there are at least four values, else the full range.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	width := s[len(s)-1] - s[0]
	if len(s) >= 4 {
		width = quantile(s, 0.75) - quantile(s, 0.25)
	}
	return math.Abs(width / med)
}
