package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method): cut point i sits at 1-based position i·(len+1)/4 of the sorted
// sample, interpolated linearly, with the bracketing index clamped to
// 1..len−1 (so very small samples extrapolate, as Python does). A single
// value is returned for all three; an empty sample gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile distance of xs as a share of its median —
// the run-to-run noise figure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs; 0 when
// empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9)) // tolerate q·n landing a hair above an integer
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// summary formats a sample as its median, quartiles, spread and count.
func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("median %.3f (q1 %.3f, q3 %.3f, spread %.3f, n=%d)", q2, q1, q3, spread(xs), len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
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

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tally counts operations attempted and failed.
type tally struct {
	attempted, failed int64
}

func (t *tally) ok()   { t.attempted++ }
func (t *tally) fail() { t.attempted++; t.failed++ }

// failRatio is failed / attempted (0 when nothing was attempted).
func (t tally) failRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }
