package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// KendallTau returns Kendall's τ-b rank correlation of the jointly
// finite (x,y) pairs, with tie correction. It errors with fewer than
// two usable pairs or when either side is entirely tied.
//
// The pair counts come from Knight's O(n log n) algorithm: sort the
// pairs by (x, y), read the x ties and joint ties off runs of equal
// values, count discordant pairs as the strict inversions of a merge
// sort over y, and read the y ties off the sorted y. Pairs are
// classified by comparing values, never by the sign of a product, so
// differences too small to multiply cannot flip a pair.
func KendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: KendallTau length mismatch %d != %d", len(xs), len(ys))
	}
	type pair struct{ x, y float64 }
	pairs := make([]pair, 0, len(xs))
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			pairs = append(pairs, pair{xs[i], ys[i]})
		}
	}
	n := len(pairs)
	if n < 2 {
		return 0, fmt.Errorf("stats: KendallTau needs ≥2 finite pairs, have %d", n)
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		return cmp.Compare(a.y, b.y)
	})
	tieX := tiedPairs(n, func(i, j int) bool { return pairs[i].x == pairs[j].x })
	tieXY := tiedPairs(n, func(i, j int) bool { return pairs[i] == pairs[j] })
	sortedY := make([]float64, n)
	for i, p := range pairs {
		sortedY[i] = p.y
	}
	discordant := mergeInversions(sortedY, make([]float64, n))
	tieY := tiedPairs(n, func(i, j int) bool { return sortedY[i] == sortedY[j] })
	concordant := n*(n-1)/2 - tieX - tieY + tieXY - discordant
	total := float64(n*(n-1)) / 2
	denom := math.Sqrt((total - float64(tieX)) * (total - float64(tieY)))
	if denom == 0 {
		return 0, fmt.Errorf("stats: KendallTau degenerate: all ties")
	}
	return (float64(concordant) - float64(discordant)) / denom, nil
}

// mergeInversions sorts s ascending by a merge sort (buf is scratch of
// the same length) and returns the number of strict inversions: index
// pairs i < j with s[i] > s[j] in the original order.
func mergeInversions(s, buf []float64) int {
	if len(s) < 2 {
		return 0
	}
	mid := len(s) / 2
	inv := mergeInversions(s[:mid], buf[:mid]) + mergeInversions(s[mid:], buf[mid:])
	copy(buf, s)
	left, right := buf[:mid], buf[mid:]
	i, j := 0, 0
	for k := range s {
		if j == len(right) || (i < len(left) && left[i] <= right[j]) {
			s[k] = left[i]
			i++
		} else {
			s[k] = right[j]
			j++
			inv += len(left) - i
		}
	}
	return inv
}

// tiedPairs counts the index pairs within runs of consecutive equal
// elements of a sequence of length n; eq compares two elements.
func tiedPairs(n int, eq func(i, j int) bool) int {
	var ties int
	for i := 0; i < n; {
		j := i + 1
		for j < n && eq(i, j) {
			j++
		}
		ties += (j - i) * (j - i - 1) / 2
		i = j
	}
	return ties
}

// TrendDirection classifies a Mann-Kendall result.
type TrendDirection int

// Trend directions.
const (
	TrendNone TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

// String names the direction.
func (t TrendDirection) String() string {
	switch t {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "no trend"
	}
}

// MKResult is the outcome of the Mann-Kendall trend test.
type MKResult struct {
	S float64 // Mann-Kendall S statistic
	Z float64 // normal-approximation test statistic
	P float64 // two-sided p-value
	// Direction at the given significance level.
	Direction TrendDirection
	N         int
}

// MannKendall tests ys (ordered by time) for a monotonic trend using
// the Mann-Kendall test with tie-corrected variance and the usual
// continuity correction. alpha is the two-sided significance level
// (e.g. 0.05).
func MannKendall(ys []float64, alpha float64) (MKResult, error) {
	clean := DropNaN(ys)
	n := len(clean)
	if n < 3 {
		return MKResult{}, fmt.Errorf("stats: MannKendall needs ≥3 points, have %d", n)
	}
	if !(alpha > 0 && alpha < 1) {
		return MKResult{}, fmt.Errorf("stats: MannKendall alpha %v outside (0,1)", alpha)
	}
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case clean[j] > clean[i]:
				s++
			case clean[j] < clean[i]:
				s--
			}
		}
	}
	// Tie-corrected variance.
	variance := float64(n*(n-1)*(2*n+5)) / 18
	for _, t := range tieGroupSizes(clean) {
		variance -= float64(t*(t-1)*(2*t+5)) / 18
	}
	res := MKResult{S: s, N: n}
	if variance <= 0 {
		// All values tied: no trend by definition.
		res.P = 1
		return res, nil
	}
	sd := math.Sqrt(variance)
	switch {
	case s > 0:
		res.Z = (s - 1) / sd
	case s < 0:
		res.Z = (s + 1) / sd
	}
	res.P = math.Erfc(math.Abs(res.Z) / math.Sqrt2) // two-sided
	if res.P <= alpha {
		if res.Z > 0 {
			res.Direction = TrendIncreasing
		} else if res.Z < 0 {
			res.Direction = TrendDecreasing
		}
	}
	return res, nil
}

// tieGroupSizes returns the sizes of groups of equal values (size ≥ 2).
func tieGroupSizes(xs []float64) []int {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []int
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if j-i >= 2 {
			out = append(out, j-i)
		}
		i = j
	}
	return out
}

// SenSlope returns the Theil–Sen estimator: the median of all pairwise
// slopes of the jointly finite (x,y) pairs — a robust trend slope.
// Pairs with equal x have no slope and are skipped; slopes that
// overflow to ±Inf or NaN are dropped, and SenSlope errors when none is
// left. The median is selected in place in expected linear time rather
// than sorted, and equals Median of the slopes bit for bit.
func SenSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: SenSlope length mismatch %d != %d", len(xs), len(ys))
	}
	var fx, fy []float64
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
	}
	n := len(fx)
	if n < 2 {
		return 0, fmt.Errorf("stats: SenSlope needs ≥2 finite pairs, have %d", n)
	}
	slopes := make([]float64, 0, n*(n-1)/2)
	pairSlopes := func() (sloped bool) {
		slopes = slopes[:0]
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if fx[j] == fx[i] {
					continue
				}
				sloped = true
				if s := (fy[j] - fy[i]) / (fx[j] - fx[i]); finite(s) {
					slopes = append(slopes, s)
				}
			}
		}
		return sloped
	}
	if !pairSlopes() {
		return 0, fmt.Errorf("stats: SenSlope degenerate: all x equal")
	}
	if len(slopes) == 0 {
		return 0, fmt.Errorf("stats: SenSlope degenerate: no finite slope")
	}
	lo, hi, frac := quantileRank(len(slopes), 0.5)
	selectNth(slopes, lo)
	med := slopes[lo]
	if hi != lo {
		// Selection leaves every larger order statistic to the right.
		med = med*(1-frac) + slices.Min(slopes[hi:])*frac
	}
	if med == 0 {
		// A zero median's sign depends on where a sort leaves equal
		// −0 and +0 slopes, which selection does not reproduce; take
		// the sorted median of the slopes in pair order instead.
		pairSlopes()
		return Median(slopes), nil
	}
	return med, nil
}

// selectNth permutes the NaN-free s so that s[k] holds its k-th
// smallest value, with nothing larger before it and nothing smaller
// after it. Each round puts the median of the range's first, middle
// and last values in the middle and Hoare-partitions around it, so
// the result is deterministic and runs of equal values split evenly.
// After 2·log₂ len(s) rounds the remaining range is sorted instead,
// bounding the worst case at O(n log n).
func selectNth(s []float64, k int) {
	l, r := 0, len(s)-1 // inclusive bounds
	for rounds := 2 * bits.Len(uint(len(s))); l < r; rounds-- {
		if rounds == 0 {
			slices.Sort(s[l : r+1])
			return
		}
		mid := l + (r-l)/2
		if s[mid] < s[l] {
			s[mid], s[l] = s[l], s[mid]
		}
		if s[r] < s[mid] {
			s[r], s[mid] = s[mid], s[r]
			if s[mid] < s[l] {
				s[mid], s[l] = s[l], s[mid]
			}
		}
		p := s[mid]
		i, j := l-1, r+1
		for {
			for i++; s[i] < p; i++ {
			}
			for j--; s[j] > p; j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// Now s[l:j+1] ≤ p ≤ s[j+1:r+1], with l ≤ j < r.
		if k <= j {
			r = j
		} else {
			l = j + 1
		}
	}
}
