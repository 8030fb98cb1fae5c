// Package metrics provides the reporting machinery shared by the
// experiments: empirical distributions (CDFs, percentiles) and plain
// text table rendering. Set accuracy is scored by core.Score and the
// oracle.
package metrics

import (
	"math"
	"sort"
)

// Dist is an accumulating empirical distribution.
type Dist struct {
	xs     []float64
	sorted bool
}

// Observe appends a sample.
func (d *Dist) Observe(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *Dist) sortIfNeeded() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation. NaN on an empty distribution.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	d.sortIfNeeded()
	if q <= 0 {
		return d.xs[0]
	}
	if q >= 1 {
		return d.xs[len(d.xs)-1]
	}
	pos := q * float64(len(d.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(d.xs) {
		return d.xs[lo]
	}
	return d.xs[lo]*(1-frac) + d.xs[lo+1]*frac
}

// Mean returns the sample mean (NaN when empty).
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// Min and Max return the extremes (NaN when empty).
func (d *Dist) Min() float64 { return d.Quantile(0) }

// Max returns the largest observed sample.
func (d *Dist) Max() float64 { return d.Quantile(1) }

// CDFAt returns the empirical P(X <= x).
func (d *Dist) CDFAt(x float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	d.sortIfNeeded()
	// Count samples <= x by binary search.
	n := sort.SearchFloat64s(d.xs, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(d.xs))
}
