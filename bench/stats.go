package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count). It panics on an empty slice: every caller measures at
// least one sample, so an empty one is a bug.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does, so a spread computed here is the
// spread the PR driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 1, 4), quantile(xs, 3, 4)
}

// quantile returns the i-th of the n-quantiles of xs by the "exclusive"
// method of Python's statistics.quantiles: position i*(len+1)/n with linear
// interpolation between the two neighbouring order statistics, the
// neighbours clamped to the sample (so a quantile beyond them extrapolates,
// as Python's does). A single value is every quantile of itself.
func quantile(xs []float64, i, n int) float64 {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 1 {
		return s[0]
	}
	j := i * (ld + 1) / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*(ld+1) - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	if len(xs) == 0 {
		panic("bench: statistic of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is a median with the quartiles and sample count printed next to
// it, so every timing carries its own spread.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median — the
// quantity the PR driver holds against a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func (s summary) String() string {
	return fmt.Sprintf("[q1 %.4g, q3 %.4g, n=%d]", s.Q1, s.Q3, s.N)
}
