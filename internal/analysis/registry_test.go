package analysis

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) < 16 {
		t.Fatalf("only %d analyses registered: %v", len(names), names)
	}
	// Registration order follows the paper's presentation.
	if names[0] != "funnel" {
		t.Errorf("first registered analysis = %q, want funnel", names[0])
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"submissions", "growth", "top100", "idlehistory", "features",
		"trends", "ep", "confound", "changepoint"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) missing", want)
		}
	}
	sorted := SortedNames()
	if len(sorted) != len(names) {
		t.Fatalf("SortedNames lost entries: %d vs %d", len(sorted), len(names))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("SortedNames not sorted at %d: %v", i, sorted)
		}
	}
}

func TestRegistryLookupRuns(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds := BuildDataset(runs)
	reg, ok := Lookup("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	if !strings.Contains(reg.Description, "efficiency") {
		t.Errorf("description = %q", reg.Description)
	}
	v, err := reg.Func(ds, reg.Params.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	fig, ok := v.(TrendFigure)
	if !ok {
		t.Fatalf("fig3 returned %T", v)
	}
	if len(fig.Points) == 0 || len(fig.Yearly) == 0 {
		t.Error("fig3 returned an empty figure")
	}
}

func TestRegisterValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate", func() {
		Register("fig3", "dup", func(*Dataset) (any, error) { return nil, nil })
	})
	expectPanic("empty name", func() {
		Register("", "x", func(*Dataset) (any, error) { return nil, nil })
	})
	expectPanic("nil func", func() {
		Register("nilfunc", "x", nil)
	})
}

// TestDatasetBuilderMatchesBatch: adding runs one at a time must
// reproduce BuildDataset exactly, whatever order runs arrive in.
func TestDatasetBuilderMatchesBatch(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	batch := BuildDataset(runs)

	b := NewDatasetBuilder()
	for i, r := range runs {
		if got, want := b.Len(), i; got != want {
			t.Fatalf("Len = %d before adding run %d", got, want)
		}
		b.Add(r)
	}
	incr := b.Snapshot()

	if incr.Funnel.String() != batch.Funnel.String() {
		t.Errorf("funnels differ:\n%s\nvs\n%s", incr.Funnel, batch.Funnel)
	}
	if len(incr.Raw) != len(batch.Raw) ||
		len(incr.Parsed) != len(batch.Parsed) ||
		len(incr.Comparable) != len(batch.Comparable) {
		t.Errorf("stage sizes differ: %d/%d/%d vs %d/%d/%d",
			len(incr.Raw), len(incr.Parsed), len(incr.Comparable),
			len(batch.Raw), len(batch.Parsed), len(batch.Comparable))
	}
	for i := range incr.Comparable {
		if incr.Comparable[i] != batch.Comparable[i] {
			t.Fatalf("comparable order differs at %d", i)
		}
	}
	// The builder's verdicts agree with the funnel accounting.
	b2 := NewDatasetBuilder()
	rejects := 0
	for _, r := range runs {
		if b2.Add(r) != 0 { // model.RejectNone
			rejects++
		}
	}
	if want := len(runs) - len(batch.Comparable); rejects != want {
		t.Errorf("Add reported %d rejects, funnel says %d", rejects, want)
	}
}
