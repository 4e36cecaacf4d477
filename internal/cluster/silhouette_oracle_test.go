package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/synth"
)

// oracleSilhouette is the per-row distance scan Silhouette replaced,
// kept verbatim as the reference its scores must reproduce.
func oracleSilhouette(m *Matrix, labels []int, k, workers int) float64 {
	n := len(m.Rows)
	if k < 2 || n < 2 {
		return 0
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	scores := make([]float64, n)
	_ = par.ForEach(n, workers, func(i int) error {
		if sizes[labels[i]] < 2 {
			return nil // singleton: s(i) = 0 by convention
		}
		sums := make([]float64, k)
		for j, row := range m.Rows {
			if j == i {
				continue
			}
			sums[labels[j]] += stats.EuclideanDist(m.Rows[i], row)
		}
		own := labels[i]
		a := sums[own] / float64(sizes[own]-1)
		b := -1.0
		for c := 0; c < k; c++ {
			if c == own || sizes[c] == 0 {
				continue
			}
			if mean := sums[c] / float64(sizes[c]); b < 0 || mean < b {
				b = mean
			}
		}
		if denom := max(a, b); denom > 0 {
			scores[i] = (b - a) / denom
		}
		return nil
	})
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(n)
}

func TestSweepKMatchesOracle(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(analysis.BuildDataset(runs).Comparable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sweep, err := SweepK(m, 2, 8, 14, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range sweep {
			res, err := KMeans(m, KMeansOptions{K: pt.K, Seed: 14, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := oracleSilhouette(m, res.Labels, res.K, workers)
			if math.Float64bits(pt.Silhouette) != math.Float64bits(want) {
				t.Errorf("workers=%d k=%d: sweep silhouette %v, oracle %v", workers, pt.K, pt.Silhouette, want)
			}
			if got := Silhouette(m, res.Labels, res.K, workers); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("workers=%d k=%d: Silhouette %v, oracle %v", workers, pt.K, got, want)
			}
		}
	}
}

func TestSilhouetteMatchesOracleRandom(t *testing.T) {
	// Seeded random partitions: duplicate rows, empty clusters and
	// singletons included.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		n, dim, k := 1+rng.Intn(120), 1+rng.Intn(4), 1+rng.Intn(6)
		levels := []int{2, 5, 1000}[rng.Intn(3)]
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(levels)) * rng.NormFloat64()
			}
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		m := &Matrix{Rows: rows}
		for _, workers := range []int{1, 3} {
			got, want := Silhouette(m, labels, k, workers), oracleSilhouette(m, labels, k, workers)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d k=%d workers=%d): Silhouette %v, oracle %v",
					trial, n, k, workers, got, want)
			}
		}
	}
}
