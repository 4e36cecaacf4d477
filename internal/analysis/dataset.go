package analysis

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/model"
)

// ReasonCount is one row of the filter funnel.
type ReasonCount struct {
	Reason model.RejectReason
	Count  int
}

// Funnel records how the corpus shrinks through the two filter stages,
// mirroring the paper's Section II accounting.
type Funnel struct {
	Raw        int // downloaded result files (paper: 1017)
	Parsed     int // after parse-consistency checks (paper: 960)
	Comparable int // after comparability filters (paper: 676)
	// ParseStage and ComparabilityStage list per-reason removals in
	// pipeline order.
	ParseStage         []ReasonCount
	ComparabilityStage []ReasonCount
}

// String renders the funnel as a small report table.
func (f Funnel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "raw results:            %4d\n", f.Raw)
	for _, rc := range f.ParseStage {
		fmt.Fprintf(&b, "  - %-38s %4d\n", rc.Reason, rc.Count)
	}
	fmt.Fprintf(&b, "successfully parsed:    %4d\n", f.Parsed)
	for _, rc := range f.ComparabilityStage {
		fmt.Fprintf(&b, "  - %-38s %4d\n", rc.Reason, rc.Count)
	}
	fmt.Fprintf(&b, "comparable (analysed):  %4d\n", f.Comparable)
	return b.String()
}

// KernelEvent is one progress event emitted by a compute kernel — a
// k-means Lloyd iteration, a HAC merge batch — while an analysis
// computes. Events carry deterministic facts about the computation
// (counts, indices, distances), never timings: the kernel's output must
// stay a pure function of (dataset, params), so any clock reads happen
// in the observer that receives the event, outside the registered
// analysis's call graph.
type KernelEvent struct {
	// Kernel names the emitting kernel ("kmeans", "hac").
	Kernel string
	// Event names the step kind ("iteration", "merge-batch").
	Event string
	// Index is the 1-based step number within the kernel run.
	Index int
	// Moved counts the labels reassigned this step (k-means).
	Moved int
	// Merges counts the dendrogram merges in this batch (HAC).
	Merges int
	// MaxDist is the largest merge distance in this batch (HAC).
	MaxDist float64
	// Converged reports whether the kernel stabilized at this step
	// (k-means: no label moved).
	Converged bool
}

// KernelObserver receives kernel progress events. Implementations must
// be safe for concurrent use (kernels may run under a worker pool) and
// must not influence the computation — observers are for tracing and
// metrics, and the determinism contract holds with or without one.
type KernelObserver func(KernelEvent)

// Dataset holds the corpus at each pipeline stage.
type Dataset struct {
	// Raw is every run handed in.
	Raw []*model.Run
	// Parsed is Raw minus parse-consistency rejects (Figure 1 uses this).
	Parsed []*model.Run
	// Comparable is Parsed minus comparability rejects — the 676-run set
	// every trend analysis uses.
	Comparable []*model.Run
	// Funnel is the removal accounting.
	Funnel Funnel
	// Workers bounds the internal parallelism of analyses computed from
	// this dataset (0 = GOMAXPROCS). The engine sets it from its own
	// worker option, so a caller capping the engine caps the analyses
	// too.
	Workers int
	// Kernel, when non-nil, receives kernel progress events from
	// analyses computed over this dataset. The engine threads a
	// per-request observer in via WithKernel; analyses only ever invoke
	// the callback (a dynamic call), keeping their own call graphs free
	// of clocks and I/O.
	Kernel KernelObserver

	// snap holds the memos of a builder snapshot, shared by the
	// shallow copies WithKernel makes; see Stage and Fold. Nil for a
	// dataset constructed literally.
	snap *snapshot
}

// snapshot is the state hanging off one builder snapshot: its stage
// memo, its place in the builder's lineage, and the lineage's fold
// memo. Every WithKernel copy shares it, so attaching an observer never
// splits a memo, and it dies with the snapshot, so a newer generation
// never sees an older one's stages.
type snapshot struct {
	stages memoTable[stage]
	// bounds is the lineage up to this snapshot: the comparable-set
	// length at the close of each generation (see
	// DatasetBuilder.EndGeneration); the last equals len(Comparable).
	bounds []int
	folds  *memoTable[fold]
}

// ParamMemoLimit bounds every memo keyed by request parameters: the
// engine's parameterized analysis entries, a snapshot's stages, and a
// lineage's folds. Parameter values are request inputs — on a served
// engine, client-controlled — so without a bound a scan over
// ?seed=1,2,3,… would grow a memo without limit. Beyond it the oldest
// key is dropped and a repeat request recomputes, deterministically.
const ParamMemoLimit = 512

// memoTable maps keys to lazily filled entries, holding at most
// ParamMemoLimit keys. A dropped entry stays valid for callers already
// holding it.
type memoTable[V any] struct {
	mu      sync.Mutex
	entries map[string]*V
	order   []string // keys in insertion order, for eviction
}

// entry returns key's entry, inserting an empty one when missing.
func (t *memoTable[V]) entry(key string) *V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.entries[key]; ok {
		return v
	}
	if t.entries == nil {
		t.entries = map[string]*V{}
	}
	v := new(V)
	t.entries[key] = v
	t.order = append(t.order, key)
	if len(t.order) > ParamMemoLimit {
		delete(t.entries, t.order[0])
		t.order = append(t.order[:0], t.order[1:]...)
	}
	return v
}

// stage is one single-flight Stage computation.
type stage struct {
	once sync.Once
	val  any
	err  error
}

// fold is one key's fold memo: the latest generation folded to and the
// states at it and at the generation before.
type fold struct {
	mu           sync.Mutex
	ok           bool
	gen          int
	before, last any
}

// Stage returns fn's result, computed at most once per snapshot and
// key: an intermediate result several analyses share, such as the
// partition behind both "clusters" and "cluster-profiles". Concurrent
// callers of one key wait for the first one's computation. Results
// must be pure functions of the dataset and key; the memo holds at
// most ParamMemoLimit keys and dies with the snapshot. A dataset
// constructed literally has no memo and computes every call.
func (d *Dataset) Stage(key string, fn func() (any, error)) (any, error) {
	if d.snap == nil {
		return fn()
	}
	s := d.snap.stages.entry(key)
	s.once.Do(func() { s.val, s.err = fn() })
	return s.val, s.err
}

// Fold returns state(g) of a fold over the dataset's lineage, g being
// this snapshot's generation: state(i) = step(runs, state(i−1), i == g),
// where runs is the comparable set as it stood at generation i (the
// last call gets Comparable itself) and state(−1) is nil. It lets a
// warm-startable kernel continue the previous generation's state while
// every result stays a pure function of (lineage, key), whatever was
// requested before. The lineage keeps, per key, only the latest
// generation folded to, so a request resumes from there instead of
// from the start. Concurrent folds of one key may repeat steps, never
// change results. A dataset not produced by a builder snapshot is a
// one-generation lineage.
func (d *Dataset) Fold(key string, step func(runs []*model.Run, prev any, last bool) any) any {
	if d.snap == nil {
		return step(d.Comparable, nil, true)
	}
	bounds := d.snap.bounds
	g := len(bounds) - 1
	f := d.snap.folds.entry(key)
	f.mu.Lock()
	from, prev := 0, any(nil)
	switch {
	case f.ok && f.gen < g:
		from, prev = f.gen+1, f.last
	case f.ok && f.gen == g:
		from, prev = g, f.before
	}
	f.mu.Unlock()
	state := prev
	for i := from; i <= g; i++ {
		prev = state
		state = step(d.Comparable[:bounds[i]], prev, i == g)
	}
	f.mu.Lock()
	if !f.ok || f.gen < g {
		f.ok, f.gen, f.before, f.last = true, g, prev, state
	}
	f.mu.Unlock()
	return state
}

// WithKernel returns a shallow copy of the dataset with the kernel
// observer attached — same corpus slices, same memos. The
// receiver is never mutated: datasets are shared across concurrent
// analyses, and the observer is per-request state.
func (d *Dataset) WithKernel(obs KernelObserver) *Dataset {
	c := *d
	c.Kernel = obs
	return &c
}

// BuildDataset classifies every run and splits the corpus into the
// pipeline stages. It is the batch form of DatasetBuilder.
func BuildDataset(runs []*model.Run) *Dataset {
	b := NewDatasetBuilder()
	for _, r := range runs {
		b.Add(r)
	}
	return b.Snapshot()
}
