package analysis

import "repro/internal/model"

// DatasetBuilder assembles a Dataset incrementally, one run at a time,
// so classification can overlap with parsing: a streaming corpus source
// feeds runs into Add while its workers are still reading files, and no
// intermediate []*model.Run has to be materialized first.
//
// A builder is not safe for concurrent use; the streaming sources
// serialize their deliveries before calling Add.
type DatasetBuilder struct {
	ds          Dataset
	parseCounts map[model.RejectReason]int
	compCounts  map[model.RejectReason]int
	// bounds is the lineage: the comparable-set length at the close of
	// each generation. Snapshots hold capacity-capped prefixes of it,
	// which later appends never write into.
	bounds []int
	// folds is the fold memo every snapshot of this builder shares.
	folds memoTable[fold]
}

// NewDatasetBuilder returns an empty builder.
func NewDatasetBuilder() *DatasetBuilder {
	return &DatasetBuilder{
		parseCounts: map[model.RejectReason]int{},
		compCounts:  map[model.RejectReason]int{},
	}
}

// Add classifies one run into the pipeline stages and returns the
// verdict: RejectNone when the run reaches the comparable set, otherwise
// the first failing check.
func (b *DatasetBuilder) Add(r *model.Run) model.RejectReason {
	b.ds.Raw = append(b.ds.Raw, r)
	if rr := model.CheckParseConsistency(r); rr != model.RejectNone {
		b.parseCounts[rr]++
		return rr
	}
	b.ds.Parsed = append(b.ds.Parsed, r)
	if rr := model.CheckComparability(r); rr != model.RejectNone {
		b.compCounts[rr]++
		return rr
	}
	b.ds.Comparable = append(b.ds.Comparable, r)
	return model.RejectNone
}

// Len reports how many runs have been added.
func (b *DatasetBuilder) Len() int { return len(b.ds.Raw) }

// Funnel snapshots the removal accounting for the runs added so far.
func (b *DatasetBuilder) Funnel() Funnel {
	f := Funnel{
		Raw:        len(b.ds.Raw),
		Parsed:     len(b.ds.Parsed),
		Comparable: len(b.ds.Comparable),
	}
	for _, rr := range model.ParseReasons() {
		f.ParseStage = append(f.ParseStage,
			ReasonCount{Reason: rr, Count: b.parseCounts[rr]})
	}
	for _, rr := range model.ComparabilityReasons() {
		f.ComparabilityStage = append(f.ComparabilityStage,
			ReasonCount{Reason: rr, Count: b.compCounts[rr]})
	}
	return f
}

// EndGeneration closes the current generation of the builder's
// lineage, the sequence Dataset.Fold steps through. A generation that
// added no comparable run is merged into the one before: analyses over
// the comparable set cannot tell the two apart, and the engine keeps
// serving their memos across such an append.
func (b *DatasetBuilder) EndGeneration() {
	n := len(b.ds.Comparable)
	if len(b.bounds) == 0 || n > b.bounds[len(b.bounds)-1] {
		b.bounds = append(b.bounds, n)
	}
}

// Snapshot closes the current generation and returns an independent
// point-in-time view of the corpus: a dataset with its own cache
// identity and stage memo, sharing the builder's fold memo. Later Add
// calls never alter a snapshot — appends extend the builder's slices
// strictly past every snapshot's length, and runs are never mutated —
// so snapshots may be read concurrently with further building.
func (b *DatasetBuilder) Snapshot() *Dataset {
	b.EndGeneration()
	ds := b.ds
	ds.Funnel = b.Funnel()
	ds.snap = &snapshot{bounds: b.bounds[:len(b.bounds):len(b.bounds)], folds: &b.folds}
	return &ds
}
