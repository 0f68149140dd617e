package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads printed here match ones computed
// from result lines in Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5, 11}, 3, 9},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 1; n <= 1000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v := TailPercentile(xs, 10)
		if n < 20 {
			if p != 0 {
				t.Fatalf("n=%d: p%d reported below the median", n, p)
			}
			continue
		}
		beyond := n - 1 - int(v)
		if beyond < 10 {
			t.Fatalf("n=%d: p%d = %v has %d samples beyond it", n, p, v, beyond)
		}
		// p+1 would leave fewer than ten beyond, so p is the highest.
		if r := ((p+1)*n + 99) / 100; p < 99 && n-r >= 10 {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 40 || s.Median != 20.5 || s.TailPct != 75 || s.Tail != 30 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Fatalf("quartiles out of order: %+v", s)
	}
}
