package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of samples, which it sorts in place; NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rankOf(len(samples), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000…2) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailRule returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median
// does not.
func tailRule(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// quartileSpread is the distance between the first and third quartiles
// of values as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartileSpread(values []float64) (median, spread float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n%2 == 1 {
		median = v[n/2]
	} else {
		median = (v[n/2-1] + v[n/2]) / 2
	}
	if n < 2 {
		return median, 0
	}
	q := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		pos := float64(j) * float64(n+1) / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			return v[0]
		}
		if i >= n {
			return v[n-1]
		}
		return v[i-1] + (v[i]-v[i-1])*frac
	}
	return median, math.Abs(q(3)-q(1)) / math.Abs(median)
}

// median of values (not modified); NaN when empty.
func median(values []float64) float64 {
	m, _ := quartileSpread(values)
	return m
}

// mean of values; NaN when empty.
func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// heapAllocBytes reads the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes forces a collection and reads the heap it left live.
// The second collection empties what sync.Pool victim caches (JSON
// encoder buffers among them) kept through the first.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
