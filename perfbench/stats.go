package main

import "sort"

// Summary describes a sample of timings: its size, median, quartiles and
// tail. Every field is reported together so a reader always sees how many
// samples stand behind a number.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest whole percentile with at least ten samples
	// beyond it, and Tail its value; TailPct is 0 when the sample is too
	// small to have one (fewer than 20 samples, so the tail would sit at
	// or below the median).
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// Summarize computes the Summary of xs; xs is not modified.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := sortedCopy(xs)
	s.Median = Median(sorted)
	s.Q1, s.Q3 = Quartiles(sorted)
	s.TailPct, s.Tail = TailPercentile(sorted, 10)
	return s
}

// Median returns the median of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// the spreads printed here match ones computed from the result lines. A
// single sample is its own quartiles.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// TailPercentile returns the highest whole percentile p of xs that has at
// least `beyond` samples above it, with its nearest-rank value. It returns
// p = 0 when no percentile at or above the median qualifies.
func TailPercentile(xs []float64, beyond int) (p int, v float64) {
	n := len(xs)
	if n <= beyond {
		return 0, 0
	}
	// Nearest rank r = ceil(p*n/100) leaves n-r samples above it; the
	// largest p with n-r >= beyond. Integer arithmetic keeps the rank exact.
	p = 100 * (n - beyond) / n
	if p < 50 {
		return 0, 0
	}
	r := (p*n + 99) / 100
	return p, sortedCopy(xs)[r-1]
}

func sortedCopy(xs []float64) []float64 {
	if sort.Float64sAreSorted(xs) {
		return xs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
