package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleKendallTau is the quadratic pair scan KendallTau replaced, kept
// verbatim as the reference its counts must reproduce.
func oracleKendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: KendallTau length mismatch %d != %d", len(xs), len(ys))
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
		return 0, fmt.Errorf("stats: KendallTau needs ≥2 finite pairs, have %d", n)
	}
	var concordant, discordant, tieX, tieY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := fx[i] - fx[j]
			dy := fy[i] - fy[j]
			switch {
			case dx == 0 && dy == 0:
				tieX++
				tieY++
			case dx == 0:
				tieX++
			case dy == 0:
				tieY++
			case dx*dy > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	total := float64(n*(n-1)) / 2
	denom := math.Sqrt((total - tieX) * (total - tieY))
	if denom == 0 {
		return 0, fmt.Errorf("stats: KendallTau degenerate: all ties")
	}
	return (concordant - discordant) / denom, nil
}

// oracleSenSlope is the sort-based Theil–Sen estimator SenSlope
// replaced, kept verbatim as the reference its median must reproduce.
func oracleSenSlope(xs, ys []float64) (float64, error) {
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
	if len(fx) < 2 {
		return 0, fmt.Errorf("stats: SenSlope needs ≥2 finite pairs, have %d", len(fx))
	}
	var slopes []float64
	for i := 0; i < len(fx); i++ {
		for j := i + 1; j < len(fx); j++ {
			if fx[j] == fx[i] {
				continue
			}
			slopes = append(slopes, (fy[j]-fy[i])/(fx[j]-fx[i]))
		}
	}
	if len(slopes) == 0 {
		return 0, fmt.Errorf("stats: SenSlope degenerate: all x equal")
	}
	return Median(slopes), nil
}

// oracleSample draws one seeded trend input: 2–300 points whose x and
// y come from one of several shapes — continuous, heavily tied,
// all-equal, signed zeros — with occasional NaN and ±Inf entries.
// Magnitudes stay where a product of two differences cannot underflow.
func oracleSample(rng *rand.Rand) (xs, ys []float64) {
	n := 2 + rng.Intn(299)
	if rng.Intn(2) == 0 {
		n = 2 + rng.Intn(20)
	}
	draw := func(shape int) float64 {
		switch shape {
		case 0: // continuous, like availability dates
			return 2005 + 19*rng.Float64()
		case 1: // continuous, signed
			return 100 * rng.NormFloat64()
		case 2: // heavy ties
			return float64(rng.Intn(4))
		case 3: // a few tied levels at fractional spacing
			return 0.25 * float64(rng.Intn(9)-4)
		case 4: // signed zeros and ones
			return [...]float64{math.Copysign(0, -1), 0, 0, 1, -1}[rng.Intn(5)]
		default: // all equal
			return 3.5
		}
	}
	xShape, yShape := rng.Intn(6), rng.Intn(6)
	nanRate := []float64{0, 0, 0.05, 0.3}[rng.Intn(4)]
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = draw(xShape), draw(yShape)
		if rng.Float64() < nanRate {
			bad := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				xs[i] = bad
			} else {
				ys[i] = bad
			}
		}
	}
	return xs, ys
}

// sameResult reports whether two (value, error) results agree bit for
// bit and in error text.
func sameResult(got float64, gotErr error, want float64, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error()
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func TestTrendKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var zeroMedians, errs int
	for trial := 0; trial < 3000; trial++ {
		xs, ys := oracleSample(rng)
		got, gotErr := KendallTau(xs, ys)
		want, wantErr := oracleKendallTau(xs, ys)
		if !sameResult(got, gotErr, want, wantErr) {
			t.Fatalf("trial %d: KendallTau = %v (%v), oracle %v (%v)\nxs=%v\nys=%v",
				trial, got, gotErr, want, wantErr, xs, ys)
		}
		got, gotErr = SenSlope(xs, ys)
		want, wantErr = oracleSenSlope(xs, ys)
		if !sameResult(got, gotErr, want, wantErr) {
			t.Fatalf("trial %d: SenSlope = %v (%v), oracle %v (%v)\nxs=%v\nys=%v",
				trial, got, gotErr, want, wantErr, xs, ys)
		}
		if wantErr != nil {
			errs++
		} else if want == 0 {
			zeroMedians++
		}
	}
	// The sample must exercise the signed-zero fallback and the error
	// paths, or the comparison above proves less than it claims.
	if zeroMedians < 100 || errs < 100 {
		t.Errorf("weak sample: %d zero Sen medians, %d errors", zeroMedians, errs)
	}
}

func TestSenSlopeNegativeZeroMedian(t *testing.T) {
	// The median slope is zero and the slopes hold both −0 and +0;
	// sorting the slopes in pair order puts a −0 at the median, while
	// a selection over the same slopes lands on a +0.
	xs := []float64{4, 2, 4, 0, 3, 3, 1}
	ys := []float64{1, 1, 1, 1, 0, 1, 0}
	want, _ := oracleSenSlope(xs, ys)
	if want != 0 || !math.Signbit(want) {
		t.Fatalf("oracle median = %v (signbit %v), want -0", want, math.Signbit(want))
	}
	if got, err := SenSlope(xs, ys); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("SenSlope = %v (%v, signbit %v), want -0", got, err, math.Signbit(got))
	}
}

func TestKendallTauTinyDifferences(t *testing.T) {
	// Every difference is ~1e-200, so dx*dy underflows to 0; comparing
	// values still sees a perfectly concordant sequence.
	xs := []float64{0, 1e-200, 2e-200, 3e-200}
	tau, err := KendallTau(xs, xs)
	if err != nil || tau != 1 {
		t.Errorf("KendallTau(xs, xs) = %v (%v), want 1", tau, err)
	}
	tau, err = KendallTau(xs, []float64{3e-200, 2e-200, 1e-200, 0})
	if err != nil || tau != -1 {
		t.Errorf("KendallTau(xs, reversed) = %v (%v), want -1", tau, err)
	}
}

func TestSenSlopeNoFiniteSlope(t *testing.T) {
	// Every pairwise slope overflows to +Inf.
	xs := []float64{0, 1e-300, 2e-300}
	ys := []float64{0, 1e300, 5e300}
	s, err := SenSlope(xs, ys)
	if err == nil || !strings.Contains(err.Error(), "no finite slope") {
		t.Errorf("SenSlope = %v (%v), want a no-finite-slope error", s, err)
	}
}

func TestSelectNthWorstCaseStillExact(t *testing.T) {
	// Organ-pipe and sorted inputs defeat a median-of-three pivot; the
	// bounded fallback must still land on the exact order statistic.
	for _, n := range []int{1, 2, 3, 10, 257, 4096} {
		for _, shape := range []struct {
			name string
			f    func(i int) float64
		}{
			{"ascending", func(i int) float64 { return float64(i) }},
			{"descending", func(i int) float64 { return float64(-i) }},
			{"organ pipe", func(i int) float64 { return float64(min(i, n-1-i)) }},
			{"two values", func(i int) float64 { return float64(i % 2) }},
		} {
			name, f := shape.name, shape.f
			for _, k := range []int{0, n / 2, n - 1} {
				s := make([]float64, n)
				for i := range s {
					s[i] = f(i)
				}
				sorted := append([]float64(nil), s...)
				sort.Float64s(sorted)
				selectNth(s, k)
				if s[k] != sorted[k] {
					t.Fatalf("%s n=%d k=%d: got %v, want %v", name, n, k, s[k], sorted[k])
				}
				for i := range s {
					if (i < k && s[i] > s[k]) || (i > k && s[i] < s[k]) {
						t.Fatalf("%s n=%d k=%d: s[%d] = %v on the wrong side of %v", name, n, k, i, s[i], s[k])
					}
				}
			}
		}
	}
}
