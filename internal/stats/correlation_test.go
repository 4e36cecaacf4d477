package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair should error")
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		var xs, ys []float64
		for _, p := range pairs {
			xs = append(xs, math.Mod(p[0], 1e6))
			ys = append(ys, math.Mod(p[1], 1e6))
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has Spearman exactly 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // nonlinear but monotone
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rho, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", rho)
	}
	// Pearson of the same data is below 1 (nonlinearity).
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0.999 {
		t.Errorf("Pearson = %v, expected visibly < 1", r)
	}
}

func TestSpearmanSkipsNaNPairs(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 4}
	ys := []float64{1, 100, 3, 4}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rho, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", rho)
	}
}

func TestRanksTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(ranks[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestRanksNaN(t *testing.T) {
	ranks := Ranks([]float64{5, math.NaN(), 1})
	if !math.IsNaN(ranks[1]) {
		t.Errorf("NaN input should yield NaN rank, got %v", ranks[1])
	}
	if ranks[0] != 2 || ranks[2] != 1 {
		t.Errorf("Ranks = %v", ranks)
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Fractional ranks of n finite values always sum to n(n+1)/2.
	f := func(raw []float64) bool {
		xs := DropNaN(raw)
		n := len(xs)
		if n == 0 {
			return true
		}
		sum := Sum(Ranks(xs))
		return almostEq(sum, float64(n*(n+1))/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = 2*a[i] + 0.01*rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	m := CorrMatrix(map[string][]float64{"a": a, "b": b, "c": c},
		[]string{"a", "b", "c"})
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Error("diagonal must be 1")
	}
	if m[0][1] < 0.99 {
		t.Errorf("corr(a,b) = %v, want ≈1", m[0][1])
	}
	if math.Abs(m[0][2]) > 0.2 {
		t.Errorf("corr(a,c) = %v, want ≈0", m[0][2])
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix must be symmetric")
	}
}
