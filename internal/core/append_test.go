package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/synth"
)

// appendTestOptions spans enough yearly bins for every registered
// analysis (trends, changepoint) to compute.
func appendTestOptions() synth.Options {
	return synth.Options{
		Seed: 11,
		Plan: []synth.YearPlan{
			{Year: 2008, Parsed: 10, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
			{Year: 2012, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.05, TwoSocketShare: 0.7},
			{Year: 2016, Parsed: 10, AMDShare: 0.10, LinuxShare: 0.10, TwoSocketShare: 0.7},
			{Year: 2018, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.20, TwoSocketShare: 0.7},
			{Year: 2020, Parsed: 10, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
			{Year: 2023, Parsed: 10, AMDShare: 0.35, LinuxShare: 0.40, TwoSocketShare: 0.7},
		},
	}
}

func TestAppendSourceStreamAndFingerprint(t *testing.T) {
	runs, err := GenerateCorpus(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	src := NewAppendSource(SliceSource(base))
	if got := src.Generation(); got != 0 {
		t.Fatalf("fresh generation = %d, want 0", got)
	}
	fp0, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	if gen := src.Append(extra); gen != 1 {
		t.Fatalf("Append generation = %d, want 1", gen)
	}
	var ids []string
	if err := src.Each(0, func(r *model.Run) error {
		ids = append(ids, r.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(runs) {
		t.Fatalf("streamed %d runs, want %d", len(ids), len(runs))
	}
	if ids[len(ids)-1] != extra.ID {
		t.Errorf("overlay run not streamed last: got %s", ids[len(ids)-1])
	}
	fp1, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp0 {
		t.Error("fingerprint unchanged after Append")
	}

	// Bump advances the generation (and therefore the fingerprint)
	// without touching the overlay — the watcher path, where the inner
	// source already carries the new content.
	if gen := src.Bump(); gen != 2 {
		t.Fatalf("Bump generation = %d, want 2", gen)
	}
	if src.AppendedRuns() != 1 {
		t.Errorf("AppendedRuns = %d, want 1", src.AppendedRuns())
	}
	fp2, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp1 {
		t.Error("fingerprint unchanged after Bump")
	}
	again, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if again != fp2 {
		t.Error("fingerprint not deterministic for a quiesced source")
	}
	if gens := src.generations(); len(gens) != 2 {
		t.Errorf("generations = %d, want inner + one Append batch", len(gens))
	}
}

// TestEngineAppendEquivalence pins the delta path to the batch path:
// ingesting N runs and appending M more must produce byte-identical
// analysis output to ingesting all N+M at once.
func TestEngineAppendEquivalence(t *testing.T) {
	runs, err := GenerateCorpus(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	split := len(runs) - 7

	batch := New(WithSource(SliceSource(runs)))
	var want bytes.Buffer
	if err := batch.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	inc := New(WithSource(SliceSource(runs[:split])))
	if _, err := inc.Dataset(); err != nil {
		t.Fatal(err)
	}
	st, err := inc.Append(runs[split:])
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 7 {
		t.Fatalf("AppendStats.Appended = %d, want 7", st.Appended)
	}
	var got bytes.Buffer
	if err := inc.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("append path diverged from batch ingestion:\nbatch:  %.200s\nappend: %.200s",
			want.String(), got.String())
	}
}

// TestEngineAppendMemoInvalidation pins the delta-aware invalidation:
// an append only drops the memos whose declared input stage gained
// rows, counted through the engine's hit/miss counters.
func TestEngineAppendMemoInvalidation(t *testing.T) {
	runs, err := GenerateCorpus(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(SliceSource(runs)))
	ds, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Comparable) == 0 {
		t.Fatal("test corpus has no comparable runs")
	}
	warm := func(names ...string) {
		t.Helper()
		for _, name := range names {
			if _, err := eng.Analysis(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One memo per input stage: raw, parsed, comparable, none.
	warm("funnel", "fig1", "fig3", "table1")

	// requery returns how many of the four requests missed the memo.
	requery := func() int64 {
		t.Helper()
		before := eng.MemoStats().Misses
		warm("funnel", "fig1", "fig3", "table1")
		return eng.MemoStats().Misses - before
	}

	tmpl := *ds.Comparable[0]

	// A parse-stage reject only grows the raw set: funnel recomputes,
	// everything else stays warm.
	reject := tmpl
	reject.ID = "append-parse-reject"
	reject.Accepted = false
	st, err := eng.Append([]*model.Run{&reject})
	if err != nil {
		t.Fatal(err)
	}
	if st.Parsed != 0 || st.Comparable != 0 {
		t.Fatalf("parse-rejected append classified as %+v", st)
	}
	if st.Invalidated != 1 || st.Retained != 3 {
		t.Errorf("parse-reject invalidated %d / retained %d, want 1/3",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 1 {
		t.Errorf("after parse-reject append: %d recomputes, want 1 (funnel)", n)
	}
	f, err := AnalysisAs[analysis.Funnel](eng, "funnel")
	if err != nil {
		t.Fatal(err)
	}
	if f.Raw != len(runs)+1 {
		t.Errorf("funnel.Raw = %d, want %d", f.Raw, len(runs)+1)
	}

	// A comparability reject grows raw + parsed: fig3 (comparable) and
	// table1 (static) stay warm.
	other := tmpl
	other.ID = "append-comp-reject"
	other.CPUVendor = model.VendorOther
	if st, err = eng.Append([]*model.Run{&other}); err != nil {
		t.Fatal(err)
	}
	if st.Parsed != 1 || st.Comparable != 0 {
		t.Fatalf("comparability-rejected append classified as %+v", st)
	}
	if st.Invalidated != 2 || st.Retained != 2 {
		t.Errorf("comp-reject invalidated %d / retained %d, want 2/2",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 2 {
		t.Errorf("after comp-reject append: %d recomputes, want 2 (funnel, fig1)", n)
	}

	// A comparable run invalidates every corpus-reading memo; the
	// static table alone survives.
	comp := tmpl
	comp.ID = "append-comparable"
	if st, err = eng.Append([]*model.Run{&comp}); err != nil {
		t.Fatal(err)
	}
	if st.Comparable != 1 {
		t.Fatalf("comparable append classified as %+v", st)
	}
	if st.Invalidated != 3 || st.Retained != 1 {
		t.Errorf("comparable invalidated %d / retained %d, want 3/1",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 3 {
		t.Errorf("after comparable append: %d recomputes, want 3", n)
	}
}

func TestEngineAppendEmptyIsNoOp(t *testing.T) {
	eng := smallEngine(t)
	if _, err := eng.Dataset(); err != nil {
		t.Fatal(err)
	}
	before := eng.RunsIngested()
	st, err := eng.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (AppendStats{}) {
		t.Errorf("empty append reported %+v", st)
	}
	if eng.RunsIngested() != before {
		t.Errorf("empty append changed the corpus: %d -> %d", before, eng.RunsIngested())
	}
}

// BenchmarkAppendVsRebuild is the acceptance benchmark: folding one
// run into a warm engine (and recomputing the one analysis it
// invalidates) must beat dropping the engine and re-classifying the
// full synthetic corpus by at least 5x.
func BenchmarkAppendVsRebuild(b *testing.B) {
	runs, err := GenerateCorpus(synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	newRun := func(i int) *model.Run {
		r := *runs[0]
		r.ID = fmt.Sprintf("bench-append-%d", i)
		return &r
	}

	b.Run("append", func(b *testing.B) {
		eng := New(WithSource(SliceSource(runs)))
		if _, err := eng.Analysis("funnel"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Append([]*model.Run{newRun(i)}); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Analysis("funnel"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grown := make([]*model.Run, 0, len(runs)+1)
			grown = append(grown, runs...)
			grown = append(grown, newRun(i))
			eng := New(WithSource(SliceSource(grown)))
			if _, err := eng.Analysis("funnel"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAppendSourceFingerprintBatchBoundaries: each Append batch is one
// generation of the lineage warm-started analyses fold over, so the
// fingerprint covers where batches split, not only which runs arrived.
func TestAppendSourceFingerprintBatchBoundaries(t *testing.T) {
	runs, err := GenerateCorpus(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, a, b, c := runs[:len(runs)-3], runs[len(runs)-3], runs[len(runs)-2], runs[len(runs)-1]
	fingerprint := func(batches ...[]*model.Run) string {
		src := NewAppendSource(SliceSource(base))
		for _, batch := range batches {
			src.Append(batch...)
		}
		fp, err := src.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	for _, tc := range []struct {
		name      string
		x, y      [][]*model.Run
		wantEqual bool
	}{
		{"ab|c vs a|bc", [][]*model.Run{{a, b}, {c}}, [][]*model.Run{{a}, {b, c}}, false},
		{"abc vs a|b|c", [][]*model.Run{{a, b, c}, {}, {}}, [][]*model.Run{{a}, {b}, {c}}, false},
		{"ab|c twice", [][]*model.Run{{a, b}, {c}}, [][]*model.Run{{a, b}, {c}}, true},
	} {
		if got := fingerprint(tc.x...) == fingerprint(tc.y...); got != tc.wantEqual {
			t.Errorf("%s: fingerprints equal = %v, want %v", tc.name, got, tc.wantEqual)
		}
	}
}

// TestFreshEngineReplaysAppendLineage: an engine built over a grown
// AppendSource — here through a FilterSource scope, as the serving
// pool builds one after an eviction — replays the inner source and
// each Append batch as one generation, so its warm-started mini-batch
// clustering matches the engine that absorbed the batches live, even
// when a batch brought the scope nothing.
func TestFreshEngineReplaysAppendLineage(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	keep, err := ParseFilter("vendor=intel")
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := analysis.Lookup("clusters")
	params, err := reg.Params.Resolve(map[string]string{"algo": "minibatch", "k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Name: "clusters", Params: params}
	n := len(runs)
	src := NewAppendSource(SliceSource(runs[:n-150]))
	scope := FilterSource{Inner: src, Keep: keep, Desc: "vendor=intel"}
	live := New(WithSource(scope), WithWorkers(2))
	var amd []*model.Run
	for _, r := range runs[n-150:] {
		if r.CPUVendor == model.VendorAMD {
			amd = append(amd, r)
		}
	}
	for _, batch := range [][]*model.Run{runs[n-150 : n-90], amd, runs[n-90 : n-30]} {
		if _, err := live.AnalysisRequest(req); err != nil {
			t.Fatal(err)
		}
		src.Append(batch...)
		var matching []*model.Run
		for _, r := range batch {
			if keep(r) {
				matching = append(matching, r)
			}
		}
		if _, err := live.Append(matching); err != nil {
			t.Fatal(err)
		}
	}
	body := func(eng *Engine) string {
		v, err := eng.AnalysisRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := body(live)
	if got := body(New(WithSource(scope), WithWorkers(2))); got != want {
		t.Errorf("fresh engine over the grown scope diverged from the live one:\nfresh: %.200s\nlive:  %.200s", got, want)
	}
	// Ingesting all runs at once is a different lineage, and a
	// different warm-start history.
	flat := FilterSource{Inner: SliceSource(runs[:n-30]), Keep: keep, Desc: "vendor=intel"}
	if got := body(New(WithSource(flat), WithWorkers(2))); got == want {
		t.Error("a one-generation corpus served the appended lineage's clustering")
	}
}
