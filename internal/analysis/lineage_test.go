package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/synth"
)

// TestFoldIsAFunctionOfTheLineage drives one builder through four
// generations and folds a step that records its calls. Whatever was
// folded before — nothing, a later generation, an earlier one — a
// snapshot's state is the same. The fold keeps only the latest
// generation it reached, so moving forward costs one step per new
// generation and going back refolds from the start.
func TestFoldIsAFunctionOfTheLineage(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewDatasetBuilder()
	var snaps []*Dataset
	next := 0
	addComparable := func(n int) {
		for added := 0; added < n; next++ {
			if b.Add(runs[next]) == model.RejectNone {
				added++
			}
		}
	}
	for _, n := range []int{40, 7, 0, 11} {
		addComparable(n)
		snaps = append(snaps, b.Snapshot())
	}
	// The third append added no comparable run, so snapshots 1 and 2
	// are one generation; the lineage has three.
	var calls []int
	step := func(rs []*model.Run, prev any, last bool) any {
		calls = append(calls, len(rs))
		p, _ := prev.(string)
		return fmt.Sprintf("%s/%d", p, len(rs))
	}
	fold := func(ds *Dataset) string {
		calls = nil
		return ds.Fold("k", step).(string)
	}
	want := []string{"/40", "/40/47", "/40/47", "/40/47/58"}

	if got := fold(snaps[3]); got != want[3] || fmt.Sprint(calls) != "[40 47 58]" {
		t.Fatalf("cold fold = %q via %v, want %q via [40 47 58]", got, calls, want[3])
	}
	if got := fold(snaps[3]); got != want[3] || fmt.Sprint(calls) != "[58]" {
		t.Errorf("repeat fold = %q via %v, want one step from the kept predecessor", got, calls)
	}
	if got := fold(snaps[1]); got != want[1] || fmt.Sprint(calls) != "[40 47]" {
		t.Errorf("older snapshot = %q via %v, want %q refolded from the start", got, calls, want[1])
	}
	if got := fold(snaps[2]); got != want[2] || fmt.Sprint(calls) != "[40 47]" {
		t.Errorf("older generation = %q via %v, want %q refolded from the start", got, calls, want[2])
	}
	for model.Classify(runs[next]) == model.RejectNone {
		next++ // find a run that stops short of the comparable set
	}
	b.Add(runs[next])
	next++
	if got := fold(b.Snapshot()); got != want[3] || fmt.Sprint(calls) != "[58]" {
		t.Errorf("same generation, new snapshot = %q via %v, want %q in one step", got, calls, want[3])
	}
	addComparable(5)
	if got := fold(b.Snapshot()); got != want[3]+"/63" || fmt.Sprint(calls) != "[63]" {
		t.Errorf("next generation = %q via %v, want one step past the kept one", got, calls)
	}
	// Concurrent folds over every snapshot agree with the sequential
	// ones.
	pure := func(rs []*model.Run, prev any, last bool) any {
		p, _ := prev.(string)
		return fmt.Sprintf("%s/%d", p, len(rs))
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for i, ds := range snaps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := ds.Fold("concurrent", pure).(string); got != want[i] {
					t.Errorf("concurrent fold of snapshot %d = %q, want %q", i, got, want[i])
				}
			}()
		}
	}
	wg.Wait()
	lone := &Dataset{Comparable: runs[:3]}
	if got := fold(lone); got != "/3" {
		t.Errorf("literal dataset fold = %q, want one generation", got)
	}
}

// TestStageSingleFlightAndBounded: concurrent callers of one key share
// one computation, WithKernel copies share the memo, and distinct keys
// past ParamMemoLimit evict the oldest instead of growing the memo.
func TestStageSingleFlightAndBounded(t *testing.T) {
	ds := BuildDataset(nil)
	var computed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := ds.WithKernel(func(KernelEvent) {}).Stage("p", func() (any, error) {
				computed.Add(1)
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Stage = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("8 concurrent callers computed %d times, want 1", n)
	}

	computed.Store(0)
	count := func() (any, error) { computed.Add(1); return nil, nil }
	for seed := 0; seed < ParamMemoLimit+10; seed++ {
		ds.Stage(fmt.Sprintf("seed=%d", seed), count)
	}
	st := &ds.snap.stages
	if len(st.entries) > ParamMemoLimit || len(st.order) > ParamMemoLimit {
		t.Fatalf("stage memo holds %d keys (%d ordered), bound %d",
			len(st.entries), len(st.order), ParamMemoLimit)
	}
	computed.Store(0)
	ds.Stage(fmt.Sprintf("seed=%d", ParamMemoLimit+9), count) // newest: resident
	if computed.Load() != 0 {
		t.Error("the newest key was recomputed")
	}
	ds.Stage("seed=0", count) // oldest: evicted, recomputed
	if computed.Load() != 1 {
		t.Error("the oldest key past the bound was not recomputed")
	}
}
