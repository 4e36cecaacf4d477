package cluster

import (
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/stats"
)

// Centroids returns the per-cluster mean rows of m under labels,
// accumulated in fixed row order. Clusters without members keep a zero
// centroid.
func Centroids(m *Matrix, labels []int, k int) [][]float64 {
	dim := 0
	if len(m.Rows) > 0 {
		dim = len(m.Rows[0])
	}
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	counts := make([]int, k)
	for i, row := range m.Rows {
		c := labels[i]
		counts[c]++
		for j, v := range row {
			cents[c][j] += v
		}
	}
	for c, cnt := range counts {
		if cnt == 0 {
			continue
		}
		for j := range cents[c] {
			cents[c][j] /= float64(cnt)
		}
	}
	return cents
}

// SSE is the within-cluster sum of squared distances from each row to
// its cluster centroid — the elbow-curve quantity.
func SSE(m *Matrix, labels []int, cents [][]float64) float64 {
	var sum float64
	for i, row := range m.Rows {
		sum += sqDist(row, cents[labels[i]])
	}
	return sum
}

// Silhouette is the mean silhouette coefficient of the partition: per
// row, (b−a)/max(a,b) where a is the mean distance to the row's own
// cluster and b the smallest mean distance to another cluster. Rows in
// singleton clusters score 0, as do rows where both means vanish. Each
// pairwise distance is computed once, on the worker pool, into a
// transient matrix of n(n−1)/2 values (1.8 MB at n = 676) that is
// dropped when the call returns. The per-cluster sums and the final
// mean accumulate serially in row order, so the value is
// schedule-independent. With fewer than two clusters the coefficient
// is undefined and Silhouette returns 0.
func Silhouette(m *Matrix, labels []int, k, workers int) float64 {
	n := len(m.Rows)
	if k < 2 || n < 2 {
		return 0
	}
	return silhouette(pairwiseDistances(m, workers), n, labels, k)
}

// pairwiseDistances returns the Euclidean distances between every pair
// of m's rows as a condensed upper triangle: the distance between rows
// i < j sits at triBase(i, n)+j. Rows of the triangle fill on the
// worker pool (disjoint writes). EuclideanDist(a, b) and
// EuclideanDist(b, a) are bitwise equal, so one entry serves both
// orders of a pair.
func pairwiseDistances(m *Matrix, workers int) []float64 {
	n := len(m.Rows)
	d := make([]float64, n*(n-1)/2)
	_ = par.ForEach(n, workers, func(i int) error {
		base := triBase(i, n)
		for j := i + 1; j < n; j++ {
			d[base+j] = stats.EuclideanDist(m.Rows[i], m.Rows[j])
		}
		return nil
	})
	return d
}

// triBase offsets row i of a condensed upper triangle over n rows: the
// entry for the pair (i, j), i < j, is at triBase(i, n)+j.
func triBase(i, n int) int {
	return i*n - i*(i+1)/2 - i - 1
}

// silhouette is Silhouette over the condensed pairwise distances d of
// n rows.
func silhouette(d []float64, n int, labels []int, k int) float64 {
	if k < 2 || n < 2 {
		return 0
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	// sums[i*k+c] is row i's total distance to the rows of cluster c.
	// One pass over the triangle in storage order adds each row's
	// distances in ascending partner order, as a direct scan of the
	// rows would: partners below i arrive while the pass is at their
	// rows, partners above i while it is at row i.
	sums := make([]float64, n*k)
	for i := 0; i < n; i++ {
		base, own, row := triBase(i, n), labels[i], sums[i*k:(i+1)*k]
		for j := i + 1; j < n; j++ {
			v := d[base+j]
			row[labels[j]] += v
			sums[j*k+own] += v
		}
	}
	var sum float64
	for i, own := range labels {
		if sizes[own] < 2 {
			continue // singleton: s(i) = 0 by convention
		}
		row := sums[i*k : (i+1)*k]
		a := row[own] / float64(sizes[own]-1)
		b := -1.0
		for c := 0; c < k; c++ {
			if c == own || sizes[c] == 0 {
				continue
			}
			if mean := row[c] / float64(sizes[c]); b < 0 || mean < b {
				b = mean
			}
		}
		if denom := max(a, b); denom > 0 {
			sum += (b - a) / denom
		}
	}
	return sum / float64(n)
}

// SweepPoint is one row of the k sweep: the elbow curve (SSE) plus the
// silhouette at that k.
type SweepPoint struct {
	K          int
	SSE        float64
	Silhouette float64
}

// SweepK runs seeded k-means for every k in [kmin, kmax] and reports
// SSE and silhouette per k — the elbow/auto-k sweep. Each k uses the
// same seed, so the sweep is as deterministic as its parts. The
// pairwise distance matrix is built once for the whole sweep and
// shared by every k's silhouette; like Silhouette's, it is transient
// (n(n−1)/2 values) and never outlives the call.
func SweepK(m *Matrix, kmin, kmax int, seed int64, workers int) ([]SweepPoint, error) {
	n := len(m.Rows)
	if kmin < 1 || kmin > kmax || kmax > n {
		return nil, fmt.Errorf("cluster: sweep range [%d, %d] outside [1, %d rows]",
			kmin, kmax, n)
	}
	var dist []float64
	if kmax >= 2 {
		dist = pairwiseDistances(m, workers)
	}
	points := make([]SweepPoint, 0, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		res, err := KMeans(m, KMeansOptions{K: k, Seed: seed, Workers: workers})
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			K:          k,
			SSE:        res.SSE,
			Silhouette: silhouette(dist, n, res.Labels, res.K),
		})
	}
	return points, nil
}

// SweepTable renders a sweep as the text table every surface shares
// (the terminal report and the speccluster CLI both print this).
func SweepTable(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %14s %12s\n", "k", "within-SSE", "silhouette")
	for _, p := range points {
		fmt.Fprintf(&b, "%4d %14.1f %12.3f\n", p.K, p.SSE, p.Silhouette)
	}
	return b.String()
}

// AutoK picks the sweep's best k: the highest silhouette, ties to the
// smaller k. An empty sweep returns 0.
func AutoK(points []SweepPoint) int {
	best := 0
	bestSil := 0.0
	for _, p := range points {
		if best == 0 || p.Silhouette > bestSil {
			best, bestSil = p.K, p.Silhouette
		}
	}
	return best
}
