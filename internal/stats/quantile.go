package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the finite entries
// of xs using linear interpolation between order statistics (the same
// "linear" method as numpy's default). It returns NaN on empty input or
// q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	clean := DropNaN(xs)
	if len(clean) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the interpolated quantile of an already sorted,
// NaN-free, non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := quantileRank(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileRank locates the q-th quantile of n > 0 sorted values: the
// order statistics lo ≤ hi it interpolates between, and the weight of
// hi.
func quantileRank(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// BoxStats is the five-number summary plus Tukey whiskers used by the
// Figure 4 box plots.
type BoxStats struct {
	N        int
	Min      float64 // smallest finite observation
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64   // largest finite observation
	LoWhisk  float64   // smallest observation ≥ Q1 − 1.5·IQR
	HiWhisk  float64   // largest observation ≤ Q3 + 1.5·IQR
	Outliers []float64 // observations beyond the whiskers, ascending
}

// Box computes BoxStats over the finite entries of xs. On empty input
// every field is NaN and N is zero.
func Box(xs []float64) BoxStats {
	clean := DropNaN(xs)
	if len(clean) == 0 {
		nan := math.NaN()
		return BoxStats{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan,
			LoWhisk: nan, HiWhisk: nan}
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	b := BoxStats{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LoWhisk = b.Max
	b.HiWhisk = b.Min
	for _, x := range sorted {
		if x >= loFence && x < b.LoWhisk {
			b.LoWhisk = x
		}
		if x <= hiFence && x > b.HiWhisk {
			b.HiWhisk = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b
}
