package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses when fewer than
// minBeyond samples lie beyond the percentile, so a tail figure is never
// read off a handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it; %d samples give %.1f",
			p, minBeyond, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo]), nil
}

// median is the 50th percentile without the tail rule (it needs no samples
// beyond it to be meaningful); 0 for no samples.
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

// iqMean is the interquartile mean: the mean of the middle half of xs
// (all of xs when there are fewer than four).
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	return mean(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
