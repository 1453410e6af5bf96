package main

import (
	"math"
	"slices"
	"time"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so that spreads read the same here and in
// Python.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
