package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // even the median leaves fewer than 10 beyond
		{20, 50},   // rank 10, 10 beyond
		{39, 50},   // p75: rank 30, 9 beyond
		{40, 75},   // p75: rank 30, 10 beyond
		{99, 75},   // p90: rank 90, 9 beyond
		{100, 90},  // p90: rank 90, 10 beyond
		{999, 95},  // p99: rank 990, 9 beyond
		{1000, 99}, // p99: rank 990, 10 beyond
		{9999, 99}, // p99.9: rank 9990, 9 beyond
		{10000, 99.9},
	} {
		if got := tailRule(tc.n); got != tc.want {
			t.Errorf("tailRule(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100 … 1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, spread := quartileSpread(v)
	if med != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartileSpread = %g, %g", med, spread)
	}
	if v[0] != 10 {
		t.Error("quartileSpread reordered its input")
	}
}

func TestReadMixIdenticalForSeed(t *testing.T) {
	keys := readKeys()
	timed := make([]bool, len(keys))
	for i := range timed {
		timed[i] = i%5 != 0
	}
	draw := func(seed int64, client int) []int {
		m := newReadMix(timed, seed, client)
		var out []int
		for range 2000 {
			k, reval := m.next()
			if reval {
				k = -k - 1
			}
			out = append(out, k)
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 mixes differ at request %d", i)
		}
	}
	other, otherClient := draw(8, 0), draw(7, 1)
	same, sameClient := 0, 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
		if a[i] == otherClient[i] {
			sameClient++
		}
	}
	if same == len(a) || sameClient == len(a) {
		t.Error("another seed or client drew the same mix")
	}
	reval := 0
	for _, k := range a {
		if k < 0 {
			reval++
			k = -k - 1
		}
		if !timed[k] {
			t.Fatalf("untimed key %d drawn", k)
		}
	}
	if share := float64(reval) / float64(len(a)); math.Abs(share-revalidateShare) > 0.05 {
		t.Errorf("revalidation share %.3f, want ≈%.2f", share, revalidateShare)
	}
	// Dropping keys keeps the others in their fixed relative rank order.
	all := make([]bool, len(keys))
	for i := range all {
		all[i] = true
	}
	var kept []int
	for _, k := range newReadMix(all, 7, 0).rank {
		if timed[k] {
			kept = append(kept, k)
		}
	}
	if got := newReadMix(timed, 7, 0).rank; !slices.Equal(got, kept) {
		t.Error("dropping keys reordered the kept keys' ranks")
	}
}

func TestKnownDefect(t *testing.T) {
	for _, c := range []struct {
		status int
		body   string
		want   bool
	}{
		{500, `{"error":"encode response: json: unsupported value: NaN"}`, true},
		{500, `{"error":"analysis: trend \"idle fraction 2017–2024\" has only 0 yearly bins"}`, true},
		{500, `{"error":"engine build failed"}`, false},
		{400, `{"error":"json: unsupported value: NaN"}`, false},
		{200, `{"note":"has only 2 yearly bins"}`, false},
	} {
		if got := knownDefect(c.status, []byte(c.body)); got != c.want {
			t.Errorf("knownDefect(%d, %s) = %v, want %v", c.status, c.body, got, c.want)
		}
	}
}

func TestLiveMixIdenticalForSeed(t *testing.T) {
	a, b := newLiveMix(3, 1), newLiveMix(3, 1)
	decks := 100
	seen, reval := map[int]int{}, map[int]int{}
	for i := range decks * len(liveKeys) * liveDeckPerKey {
		ka, ra := a.draw()
		kb, rb := b.draw()
		if ka != kb || ra != rb {
			t.Fatalf("seed 3 live mixes differ at request %d", i)
		}
		seen[ka]++
		if ra {
			reval[ka]++
		}
	}
	wantReval := int(math.Round(revalidateShare*liveDeckPerKey)) * decks
	for k := range liveKeys {
		if seen[k] != decks*liveDeckPerKey || reval[k] != wantReval {
			t.Errorf("key %d read %d times, %d revalidating; want %d and %d",
				k, seen[k], reval[k], decks*liveDeckPerKey, wantReval)
		}
	}
}

func TestETagBodyChecker(t *testing.T) {
	c := newEtagBodies()
	if !c.check(`"a"`, "d1") || !c.check(`"a"`, "d1") || !c.check(`"b"`, "d2") {
		t.Fatal("consistent ETags rejected")
	}
	if c.check(`"a"`, "d2") {
		t.Error("one ETag with two bodies accepted")
	}
	if !c.check(`"c"`, "d1") {
		t.Error("two ETags sharing a body rejected")
	}
}

func TestSolicited304(t *testing.T) {
	if solicited304("", `"a"`) || solicited304(`"b"`, `"a"`) {
		t.Error("unsolicited 304 accepted")
	}
	if !solicited304(`"a"`, `"a"`) {
		t.Error("matching revalidation rejected")
	}
}

func TestGenerationsStrictlyIncrease(t *testing.T) {
	var g generations
	for _, gen := range []uint64{1, 2, 5} {
		if !g.check(gen) {
			t.Fatalf("generation %d rejected", gen)
		}
	}
	if g.check(5) || g.check(3) {
		t.Error("non-increasing generation accepted")
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := newLedger()
	l.ok()
	l.ok()
	l.fail("500 x")
	l.fail("500 x")
	if a, f, correct := l.counts(); a != 4 || f != 2 || !correct {
		t.Fatalf("counts = %d, %d, %v; want 4, 2, true: plain failures keep the run correct", a, f, correct)
	}
	l.violate("one ETag, two bodies")
	if a, f, correct := l.counts(); a != 5 || f != 3 || correct {
		t.Fatalf("counts = %d, %d, %v; want 5, 3, false", a, f, correct)
	}
	rep := l.report()
	if len(rep) != 2 {
		t.Fatalf("report = %q, want one line per reason", rep)
	}
}

func TestIdentitiesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	first := newIdentities()
	first.record("g0 /a", "x")
	first.record("g1 /a", "y")
	if runs, diff, err := first.saveAndCompare(dir, "w-seed1"); err != nil || runs != 0 || diff != 0 {
		t.Fatalf("first run: %d runs, %d differing, %v", runs, diff, err)
	}
	second := newIdentities()
	second.record("g0 /a", "x")
	second.record("g1 /a", "z") // history-dependent bytes
	second.record("g2 /a", "w")
	if !second.record("g2 /a", "w") || second.record("g2 /a", "v") {
		t.Fatal("within-run identity check wrong")
	}
	if runs, diff, err := second.saveAndCompare(dir, "w-seed1"); err != nil || runs != 1 || diff != 1 {
		t.Fatalf("second run: %d runs, %d differing, %v; want 1, 1", runs, diff, err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Errorf("%d identity maps written, want 2", len(files))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps 1
		{ID: 3, Parent: 2, Start: 35 * ms, End: 45 * ms},
		{ID: 4, Parent: 0, Start: 90 * ms, End: 120 * ms}, // overruns its parent
	}
	want := []time.Duration{100*ms - 50*ms - 10*ms, 30 * ms, 20 * ms, 10 * ms, 30 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d) = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1, 1); id != -1 || tr.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", -1, 9)
	child := tr.begin("child", root, 9)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		t.Fatalf("spans file: %v", err)
	}
	if s := tr.snapshot(); len(s) != 2 || s[1].Parent != root || s[1].Op != 9 {
		t.Errorf("spans = %+v", s)
	}
}

func TestExpectedFunnelSeed14(t *testing.T) {
	c, err := genCorpus(14)
	if err != nil {
		t.Fatal(err)
	}
	if c.funnel != paperFunnel {
		t.Errorf("funnel %+v, want %+v", c.funnel, paperFunnel)
	}
	f, err := scopeFunnel(c.runs, "vendor=amd")
	if err != nil || f.Raw == 0 || f.Raw >= c.funnel.Raw {
		t.Errorf("vendor=amd scope funnel %+v, %v", f, err)
	}
}

func TestLiveFeedInterleavesStages(t *testing.T) {
	c, err := genCorpus(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newLiveFeed(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newLiveFeed(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.pool {
		if f.pool[i].ID != g.pool[i].ID {
			t.Fatalf("pool order differs at %d for one seed", i)
		}
	}
	last := f.funnelAt[len(f.pool)]
	share := float64(last.Comparable-f.funnelAt[0].Comparable) / float64(len(f.pool))
	for _, n := range []int{50, 100, 200} {
		got := float64(f.funnelAt[n].Comparable-f.funnelAt[0].Comparable) / float64(n)
		if math.Abs(got-share) > 1.5/float64(n) {
			t.Errorf("comparable share of the first %d appends %.3f, want %.3f", n, got, share)
		}
	}
	if f.funnelAt[0] != expectedFunnel(f.base) || last.Raw != len(f.base)+len(f.pool) {
		t.Errorf("funnel bookkeeping: start %+v end %+v", f.funnelAt[0], last)
	}
}

func TestFunnelCheckAcceptsGenerationRange(t *testing.T) {
	want := []funnelCounts{{10, 9, 8}, {11, 10, 9}, {12, 11, 9}}
	check := funnelCheck(want)
	body := []byte(`{"value":{"Raw":11,"Parsed":10,"Comparable":9}}`)
	if err := check(body, 0, 1); err != nil {
		t.Fatalf("funnel of generation 1 rejected in [0, 1]: %v", err)
	}
	if err := check(body, 1, 1); err != nil {
		t.Fatalf("funnel of generation 1 rejected at 1: %v", err)
	}
	if check(body, 0, 0) == nil || check(body, 2, 2) == nil {
		t.Fatal("funnel of generation 1 accepted outside its generation")
	}
}
