package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool // reportable
	}{
		{99, 90, false},
		{100, 90, true},
		{999, 99, false},
		{1000, 99, true},
		{19, 50, false},
		{20, 50, true},
	}
	for _, c := range cases {
		_, err := percentile(seq(c.n), c.p)
		if got := err == nil; got != c.want {
			t.Errorf("p%g of %d samples: reportable=%v, want %v (err %v)", c.p, c.n, got, c.want, err)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	// 1..100: p90 sits 0.1 of the way from the 90th to the 91st value.
	got, err := percentile(seq(100), 90)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
	xs := seq(1000)
	got, err = percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
}

func TestIQMean(t *testing.T) {
	// The quarter at each end is dropped: 100 and 1 do not count.
	if got := iqMean([]float64{100, 4, 5, 1, 6, 3, 2, 7}); got != 4.5 {
		t.Errorf("iqMean = %v, want 4.5", got)
	}
	if got := iqMean([]float64{2, 4}); got != 3 {
		t.Errorf("iqMean of two = %v, want 3", got)
	}
}
