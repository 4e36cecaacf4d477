package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/model"
)

// Defaults of the registered analyses' parameter schemas. A request
// that supplies none of the knobs computes exactly what the pinned
// registrations of old did (seed 14, auto-k over 2…8), so the default
// output is stable across the parameterization of the API. The seed
// mirrors the default synthetic corpus seed.
const (
	DefaultSeed = 14
	autoKMin    = 2
	autoKMax    = 8
	sweepKMax   = 10
)

// Assignment maps one run to its cluster, in corpus order.
type Assignment struct {
	ID      string `json:"id"`
	Cluster int    `json:"cluster"`
}

// Result is the "clusters" analysis outcome: the labeled partition
// plus its quality metrics. K = 0 means the corpus slice was too small
// to cluster (fewer than two comparable runs).
type Result struct {
	Algo        string       `json:"algo"`
	K           int          `json:"k"`
	Features    []string     `json:"features"`
	SSE         float64      `json:"sse"`
	Silhouette  float64      `json:"silhouette"`
	Sizes       []int        `json:"sizes"`
	Assignments []Assignment `json:"assignments"`
}

// NewResult assembles a Result from a labeled partition: sizes, SSE
// against the label centroids, silhouette, and per-run assignments in
// row order. It is shared by the registry analyses, the speccluster
// CLI, and the benchmarks, so every surface reports the same shape.
func NewResult(algo string, m *Matrix, labels []int, k, workers int) Result {
	return newResult(algo, m, labels, k, Silhouette(m, labels, k, workers))
}

// newResult is NewResult with the silhouette already in hand — the
// registry analyses reuse the sweep's value instead of rescanning.
func newResult(algo string, m *Matrix, labels []int, k int, silhouette float64) Result {
	res := Result{
		Algo:        algo,
		K:           k,
		Features:    m.Features,
		Silhouette:  silhouette,
		Sizes:       make([]int, k),
		Assignments: make([]Assignment, len(m.Runs)),
	}
	for i, r := range m.Runs {
		res.Sizes[labels[i]]++
		res.Assignments[i] = Assignment{ID: r.ID, Cluster: labels[i]}
	}
	res.SSE = SSE(m, labels, Centroids(m, labels, k))
	return res
}

// Validation hooks shared by the schema declarations.

func intAtLeast(low int64) func(any) error {
	return func(v any) error {
		if n := v.(int64); n < low {
			return fmt.Errorf("%d below minimum %d", n, low)
		}
		return nil
	}
}

func floatAtLeast(low float64) func(any) error {
	return func(v any) error {
		f := v.(float64)
		// ParseFloat admits "NaN" and "Inf"; both slip past every
		// downstream range check (NaN compares false with everything),
		// so reject non-finite values here, at the 400 boundary.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%g is not a finite number", f)
		}
		if f < low {
			return fmt.Errorf("%g below minimum %g", f, low)
		}
		return nil
	}
}

// featuresParam declares the feature-subset knob, validated against
// FeatureNames at resolve time so a typo is a 400, not a computation
// failure deep in Extract.
func featuresParam() analysis.Param {
	return analysis.Param{
		Name: "features", Kind: analysis.KindStringList,
		Description: "feature subset (default all: " + strings.Join(FeatureNames(), ",") + ")",
		Validate: func(v any) error {
			_, err := selectFeatures(v.([]string))
			return err
		},
	}
}

func seedParam() analysis.Param {
	return analysis.Param{
		Name: "seed", Kind: analysis.KindInt, Default: DefaultSeed,
		Description: "k-means++ RNG seed",
	}
}

func sweepRangeParams(kmaxDefault int) []analysis.Param {
	return []analysis.Param{
		{Name: "kmin", Kind: analysis.KindInt, Default: autoKMin,
			Description: "sweep lower bound", Validate: intAtLeast(2)},
		{Name: "kmax", Kind: analysis.KindInt, Default: kmaxDefault,
			Description: "sweep upper bound (clamped to the corpus size)",
			Validate:    intAtLeast(2)},
	}
}

// partitionSchema declares the knobs of the "clusters" and
// "cluster-profiles" analyses — both describe the same partition, so
// they share one schema (and, through the dataset's stage memo, one
// computation per parameterization). The canonical identity is
// schema-wide: a knob the selected algorithm happens to ignore
// (linkage under kmeans, say) still keys a distinct scenario. Equal
// canonical strings always mean equal computations; the converse is
// deliberately not promised — collapsing it would couple the identity
// to per-algorithm data flow.
func partitionSchema() analysis.Schema {
	s := analysis.Schema{
		{Name: "k", Kind: analysis.KindInt, Default: 0,
			Description: "cluster count (0 = auto-select by silhouette over kmin…kmax)",
			Validate:    intAtLeast(0)},
		{Name: "algo", Kind: analysis.KindEnum, Enum: []string{"kmeans", "hac", "minibatch"},
			Default: "kmeans", Description: "clustering algorithm"},
		{Name: "batch", Kind: analysis.KindInt, Default: 128,
			Description: "minibatch rows sampled per iteration",
			Validate:    intAtLeast(1)},
		{Name: "linkage", Kind: analysis.KindEnum,
			Enum:    []string{"average", "single", "complete"},
			Default: "average", Description: "hac cluster-distance criterion"},
		{Name: "cut", Kind: analysis.KindFloat, Default: 0.0,
			Description: "hac dendrogram distance threshold (overrides k)",
			Validate:    floatAtLeast(0)},
		seedParam(),
		featuresParam(),
	}
	return append(s, sweepRangeParams(autoKMax)...)
}

func sweepSchema() analysis.Schema {
	s := analysis.Schema{seedParam(), featuresParam()}
	return append(s, sweepRangeParams(sweepKMax)...)
}

// partition is the shared outcome of one parameterized clustering:
// the labeled partition and its silhouette. k == 0 means the corpus
// slice had fewer than two comparable runs (or the auto-k sweep had no
// room after clamping) — nothing to cluster, but not an error. It holds
// no feature matrix: re-extracting one costs a fraction of a
// millisecond, while keeping one per memoized partition would weigh on
// the server's resident heap.
type partition struct {
	algo   string // reported label: "kmeans++", "hac/<linkage>" or "minibatch"
	k      int
	labels []int
	sil    float64
}

// miniWarm is the online state one mini-batch run hands its successor.
type miniWarm struct {
	cents  [][]float64
	counts []int64
}

// partitionFor computes (or recalls from the dataset's stage memo) the
// partition the params describe over the dataset's comparable runs, so
// "clusters" and "cluster-profiles" — fanned out concurrently by
// Engine.Run — share one computation per scenario.
func partitionFor(ds *analysis.Dataset, params analysis.Params) (*partition, error) {
	v, err := ds.Stage("partition|"+params.Canonical(), func() (any, error) {
		return computePartition(ds, params)
	})
	if err != nil {
		return nil, err
	}
	return v.(*partition), nil
}

// sweepFor computes (or recalls) the k sweep of m over [kmin, kmax]
// under seed. Equal feature selections over one dataset produce equal
// matrices (extraction is deterministic), so the stage keys by the
// sweep-relevant inputs alone, letting the partition path and the
// sweep analysis share one SweepK — the dominant cost of a default
// clustering — across their different schemas.
func sweepFor(ds *analysis.Dataset, m *Matrix, kmin, kmax int, seed int64) ([]SweepPoint, error) {
	key := fmt.Sprintf("sweep|%s|%d|%d|%d", strings.Join(m.Features, ","), kmin, kmax, seed)
	v, err := ds.Stage(key, func() (any, error) {
		return SweepK(m, kmin, kmax, seed, ds.Workers)
	})
	if err != nil {
		return nil, err
	}
	return v.([]SweepPoint), nil
}

const (
	algoKMeans    = "kmeans++"
	algoMiniBatch = "minibatch"
)

// kmeansObserver adapts the dataset's kernel observer to the k-means
// per-iteration callback; nil when the dataset is unobserved. The
// adapter only forwards deterministic counts through a dynamic call —
// no clocks, no I/O — so registered analyses stay determinism-clean.
func kmeansObserver(ds *analysis.Dataset) func(iter, moved int, converged bool) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(iter, moved int, converged bool) {
		obs(analysis.KernelEvent{Kernel: "kmeans", Event: "iteration",
			Index: iter, Moved: moved, Converged: converged})
	}
}

// minibatchObserver forwards mini-batch iteration events to the
// dataset's kernel observer; nil when the dataset is unobserved.
func minibatchObserver(ds *analysis.Dataset) func(iter, moved int, converged bool) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(iter, moved int, converged bool) {
		obs(analysis.KernelEvent{Kernel: "minibatch", Event: "iteration",
			Index: iter, Moved: moved, Converged: converged})
	}
}

// hacObserver is kmeansObserver's HAC sibling, forwarding merge-batch
// events.
func hacObserver(ds *analysis.Dataset) func(batch, merges int, maxDist float64) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(batch, merges int, maxDist float64) {
		obs(analysis.KernelEvent{Kernel: "hac", Event: "merge-batch",
			Index: batch, Merges: merges, MaxDist: maxDist})
	}
}

// computePartition clusters the dataset's comparable runs. Mini-batch
// k-means warm-starts each generation from the one before, so its
// partition is the last step of a fold over the dataset's lineage:
// state(g) = MiniBatch(comparable runs at g, warm = state(g−1)). The
// result depends only on the corpus's append history and the params,
// never on which generations were requested before.
func computePartition(ds *analysis.Dataset, p analysis.Params) (*partition, error) {
	if p.Str("algo") != "minibatch" {
		part, _, err := partitionOf(ds, ds.Comparable, p, nil, true)
		return part, err
	}
	var part *partition
	var err error
	ds.Fold(p.Canonical(), func(runs []*model.Run, prev any, last bool) any {
		warm, _ := prev.(*miniWarm)
		pt, next, stepErr := partitionOf(ds, runs, p, warm, last)
		if last {
			part, err = pt, stepErr
		}
		return next
	})
	return part, err
}

// partitionOf clusters runs under p, resolving k exactly as a request
// would. For mini-batch it also returns the online state the next
// generation warm-starts from (nil when no run was clustered). A step
// that is not the last of a fold is silent — no kernel events — and
// skips the silhouette and the shared sweep stage, since it only
// carries state forward.
func partitionOf(ds *analysis.Dataset, runs []*model.Run, p analysis.Params, warm *miniWarm, last bool) (*partition, *miniWarm, error) {
	m, err := Extract(runs, Options{Features: p.Strings("features")})
	if err != nil {
		return nil, nil, err
	}
	algo := p.Str("algo")
	part := &partition{algo: algoKMeans}
	switch algo {
	case "hac":
		part.algo = "hac/" + p.Str("linkage")
	case "minibatch":
		part.algo = algoMiniBatch
	}
	n := len(m.Rows)
	if n < 2 {
		return part, nil, nil // nothing to cluster; degrade, don't error
	}
	k := p.Int("k")
	if k > n {
		return nil, nil, analysis.BadParams("k = %d exceeds the %d clusterable runs", k, n)
	}
	workers, seed := ds.Workers, p.Int64("seed")
	var sweep []SweepPoint
	if k == 0 && algo != "hac" {
		kmin, kmax, err := sweepRange(p, n)
		if err != nil {
			return nil, nil, err
		}
		if kmax < kmin {
			return part, nil, nil // corpus smaller than the sweep floor
		}
		if last {
			sweep, err = sweepFor(ds, m, kmin, kmax, seed)
		} else {
			sweep, err = SweepK(m, kmin, kmax, seed, workers)
		}
		if err != nil {
			return nil, nil, err
		}
		k = AutoK(sweep)
	}
	var next *miniWarm
	switch algo {
	case "kmeans":
		res, err := KMeans(m, KMeansOptions{K: k, Seed: seed, Workers: workers,
			OnIteration: kmeansObserver(ds)})
		if err != nil {
			return nil, nil, err
		}
		part.k, part.labels = res.K, res.Labels
	case "hac":
		cut := p.Float("cut")
		if k == 0 && cut == 0 {
			return nil, nil, analysis.BadParams("algo=hac needs k or cut")
		}
		lk, err := ParseLinkage(p.Str("linkage"))
		if err != nil {
			return nil, nil, err // unreachable: the enum admits only valid spellings
		}
		res, err := HAC(m, HACOptions{Linkage: lk, K: k, Cut: cut, Workers: workers,
			OnMergeBatch: hacObserver(ds)})
		if err != nil {
			return nil, nil, err
		}
		part.k, part.labels = res.K, res.Labels
	case "minibatch":
		mbo := MiniBatchOptions{K: k, Seed: seed, BatchSize: p.Int("batch"), Workers: workers}
		if last {
			mbo.OnIteration = minibatchObserver(ds)
		}
		if warm != nil {
			mbo.InitCentroids, mbo.InitCounts = warm.cents, warm.counts
		}
		res, err := MiniBatch(m, mbo)
		if err != nil {
			return nil, nil, err
		}
		next = &miniWarm{cents: res.Centroids, counts: res.Counts}
		part.k, part.labels = res.K, res.Labels
	default:
		return nil, nil, analysis.BadParams("unknown algo %q", algo)
	}
	if !last {
		return part, next, nil
	}
	if algo == "kmeans" && sweep != nil {
		// The sweep already scored this k; the same seed reproduces
		// the same labels, so the silhouette carries over exactly.
		for _, pt := range sweep {
			if pt.K == k {
				part.sil = pt.Silhouette
			}
		}
	} else {
		part.sil = Silhouette(m, part.labels, part.k, workers)
	}
	return part, next, nil
}

// sweepRange reads kmin/kmax, rejects an inverted request, and clamps
// kmax to the corpus size (a small scope must degrade, not error).
func sweepRange(p analysis.Params, rows int) (kmin, kmax int, err error) {
	kmin, kmax = p.Int("kmin"), p.Int("kmax")
	if kmax < kmin {
		return 0, 0, analysis.BadParams("kmax = %d below kmin = %d", kmax, kmin)
	}
	return kmin, min(kmax, rows), nil
}

func init() {
	analysis.RegisterParams("clusters",
		"machine-configuration clusters (k-means++, auto-k by silhouette)",
		partitionSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			part, err := partitionFor(ds, p)
			if err != nil {
				return nil, err
			}
			m, err := Extract(ds.Comparable, Options{Features: p.Strings("features")})
			if err != nil {
				return nil, err
			}
			if part.k == 0 {
				return Result{Algo: part.algo, Features: m.Features,
					Sizes: []int{}, Assignments: []Assignment{}}, nil
			}
			return newResult(part.algo, m, part.labels, part.k, part.sil), nil
		}, analysis.Reads(analysis.InputComparable))
	analysis.RegisterParams("cluster-profiles",
		"per-cluster phenotypes: dominant vendor, median cores/score, year range",
		partitionSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			part, err := partitionFor(ds, p)
			if err != nil {
				return nil, err
			}
			if part.k == 0 {
				return ProfileSet{Algo: part.algo, Profiles: []Profile{}}, nil
			}
			return ProfileSet{
				Algo:       part.algo,
				K:          part.k,
				Silhouette: part.sil,
				Profiles:   Profiles(ds.Comparable, part.labels, part.k),
			}, nil
		}, analysis.Reads(analysis.InputComparable))
	analysis.RegisterParams("cluster-sweep",
		"k sweep: within-cluster SSE and silhouette for k = 2…10 (elbow curve)",
		sweepSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			m, err := Extract(ds.Comparable, Options{Features: p.Strings("features")})
			if err != nil {
				return nil, err
			}
			kmin, kmax, err := sweepRange(p, len(m.Rows))
			if err != nil {
				return nil, err
			}
			if kmax < kmin {
				return []SweepPoint{}, nil
			}
			return sweepFor(ds, m, kmin, kmax, p.Int64("seed"))
		}, analysis.Reads(analysis.InputComparable))
}
