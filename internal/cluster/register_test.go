package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/synth"
)

// synthDataset classifies the default synthetic corpus — the "synth:"
// corpus the acceptance criteria cluster over.
func synthDataset(t *testing.T) *analysis.Dataset {
	t.Helper()
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds := analysis.BuildDataset(runs)
	ds.Workers = 4
	return ds
}

func lookup(t *testing.T, name string) analysis.Registration {
	t.Helper()
	reg, ok := analysis.Lookup(name)
	if !ok {
		t.Fatalf("analysis %q not registered", name)
	}
	return reg
}

// runOn computes a registered analysis over ds with raw parameter
// assignments (nil = defaults), resolving them against the declared
// schema the way every serving surface does.
func runOn(t *testing.T, ds *analysis.Dataset, name string, raw map[string]string) (any, error) {
	t.Helper()
	reg := lookup(t, name)
	params, err := reg.Params.Resolve(raw)
	if err != nil {
		t.Fatalf("%s: resolve %v: %v", name, raw, err)
	}
	return reg.Func(ds, params)
}

func TestClustersAnalysisOnSynthCorpus(t *testing.T) {
	ds := synthDataset(t)
	v, err := runOn(t, ds, "clusters", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := v.(cluster.Result)
	if !ok {
		t.Fatalf("clusters returned %T", v)
	}
	if res.Algo != "kmeans++" || res.K < 2 || res.K > 8 {
		t.Errorf("algo/k = %s/%d", res.Algo, res.K)
	}
	if len(res.Assignments) != len(ds.Comparable) {
		t.Errorf("%d assignments for %d comparable runs",
			len(res.Assignments), len(ds.Comparable))
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
		if s == 0 {
			t.Error("registered clustering produced an empty cluster")
		}
	}
	if total != len(ds.Comparable) {
		t.Errorf("sizes sum to %d, want %d", total, len(ds.Comparable))
	}
	if res.Silhouette <= 0 {
		t.Errorf("silhouette = %v, want > 0 on the calibrated corpus", res.Silhouette)
	}
	if res.SSE <= 0 {
		t.Errorf("SSE = %v", res.SSE)
	}
}

func TestHACOnSynthCorpus(t *testing.T) {
	ds := synthDataset(t)
	m, err := cluster.Extract(ds.Comparable, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.HAC(m, cluster.HACOptions{
		Linkage: cluster.LinkageAverage, K: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Fatalf("K = %d", res.K)
	}
	if sil := cluster.Silhouette(m, res.Labels, res.K, 4); sil <= -1 || sil >= 1 {
		t.Errorf("silhouette = %v out of range", sil)
	}
}

func TestClusterProfilesAndSweepOnSynthCorpus(t *testing.T) {
	ds := synthDataset(t)
	v, err := runOn(t, ds, "cluster-profiles", nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := v.(cluster.ProfileSet)
	if ps.K < 2 || len(ps.Profiles) != ps.K {
		t.Errorf("profile set: k=%d, %d profiles", ps.K, len(ps.Profiles))
	}
	for _, p := range ps.Profiles {
		if p.Size == 0 || p.DominantVendor == "" {
			t.Errorf("degenerate profile: %+v", p)
		}
	}
	v, err = runOn(t, ds, "cluster-sweep", nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep := v.([]cluster.SweepPoint)
	if len(sweep) != 9 || sweep[0].K != 2 || sweep[8].K != 10 {
		t.Errorf("sweep shape: %+v", sweep)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].SSE > sweep[0].SSE {
			// SSE at higher k occasionally plateaus but must never beat
			// k=2 badly; a gross inversion means broken bookkeeping.
			t.Errorf("SSE grew from %v (k=2) to %v (k=%d)",
				sweep[0].SSE, sweep[i].SSE, sweep[i].K)
		}
	}
}

// TestClustersTinyCorpus: filtered scopes can leave almost nothing;
// the analyses must degrade to an empty result, not an error.
func TestClustersTinyCorpus(t *testing.T) {
	ds := analysis.BuildDataset(nil)
	for _, name := range []string{"clusters", "cluster-profiles", "cluster-sweep"} {
		if _, err := runOn(t, ds, name, nil); err != nil {
			t.Errorf("%s on empty corpus: %v", name, err)
		}
	}
	v, err := runOn(t, ds, "clusters", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := v.(cluster.Result); res.K != 0 || len(res.Assignments) != 0 {
		t.Errorf("empty-corpus result: %+v", res)
	}
}

// TestClustersJSONDeterministic is the determinism acceptance test:
// the same seed and corpus must produce byte-identical "clusters" JSON
// across repeated runs on fresh engines — under -race in CI, this also
// guards against map-iteration order and global-rand leaks in the
// parallel paths. Half the runs spell the old pinned parameters out
// explicitly (?seed=14&kmin=2&kmax=8): the back-compat pin of the
// parameterized API is that an explicit-defaults request and a
// parameterless one are the same bytes, params echo included.
func TestClustersJSONDeterministic(t *testing.T) {
	reg, ok := analysis.Lookup("clusters")
	if !ok {
		t.Fatal("clusters not registered")
	}
	explicit, err := reg.Params.Resolve(map[string]string{
		"seed": "14", "kmin": "2", "kmax": "8", "algo": "kmeans",
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 10; i++ {
		eng := core.New(core.WithSeed(synth.DefaultSeed), core.WithWorkers(4))
		var buf bytes.Buffer
		req := core.Request{Name: "clusters"}
		if i%2 == 1 {
			req.Params = explicit // odd runs pin the explicit spelling
		}
		if err := eng.WriteJSONRequests(&buf, req); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = append([]byte(nil), buf.Bytes()...)
			if len(want) == 0 {
				t.Fatal("empty clusters JSON")
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("run %d (explicit=%v): clusters JSON differs from run 0",
				i, i%2 == 1)
		}
	}
}

// TestClustersParamScenarios drives the registered analyses through
// non-default parameterizations: explicit k, hac by k and by cut,
// feature subsets, and a sweep range — every knob the schema declares.
func TestClustersParamScenarios(t *testing.T) {
	ds := synthDataset(t)

	v, err := runOn(t, ds, "clusters", map[string]string{"k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.(cluster.Result); res.K != 3 || res.Algo != "kmeans++" {
		t.Errorf("k=3: got k=%d algo=%s", res.K, res.Algo)
	}

	v, err = runOn(t, ds, "clusters", map[string]string{"algo": "hac", "k": "4", "linkage": "complete"})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.(cluster.Result); res.K != 4 || res.Algo != "hac/complete" {
		t.Errorf("hac k=4: got k=%d algo=%s", res.K, res.Algo)
	}

	v, err = runOn(t, ds, "clusters", map[string]string{"algo": "hac", "cut": "3.5"})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.(cluster.Result); res.K < 1 || res.Algo != "hac/average" {
		t.Errorf("hac cut: got k=%d algo=%s", res.K, res.Algo)
	}

	v, err = runOn(t, ds, "clusters", map[string]string{"k": "2", "features": "score,cores"})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.(cluster.Result); len(res.Features) != 2 || res.Features[0] != "score" {
		t.Errorf("feature subset: %v", res.Features)
	}

	v, err = runOn(t, ds, "cluster-profiles", map[string]string{"k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if ps := v.(cluster.ProfileSet); ps.K != 3 || len(ps.Profiles) != 3 {
		t.Errorf("profiles k=3: k=%d, %d profiles", ps.K, len(ps.Profiles))
	}

	v, err = runOn(t, ds, "cluster-sweep", map[string]string{"kmin": "3", "kmax": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if sweep := v.([]cluster.SweepPoint); len(sweep) != 3 || sweep[0].K != 3 || sweep[2].K != 5 {
		t.Errorf("sweep 3…5: %+v", v)
	}

	// Seeds are real inputs: different seeds may legitimately differ,
	// equal seeds must agree exactly.
	a, err := runOn(t, ds, "clusters", map[string]string{"k": "4", "seed": "99"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOn(t, ds, "clusters", map[string]string{"k": "4", "seed": "99"})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Error("equal seeds produced different partitions")
	}
}

// TestClustersBadParamCombos: failures the per-key validation cannot
// see surface as BadParamsErrors (the server's 400), never panics.
func TestClustersBadParamCombos(t *testing.T) {
	ds := synthDataset(t)
	cases := []map[string]string{
		{"algo": "hac"},            // no stopping rule
		{"k": "100000"},            // beyond the corpus
		{"kmin": "6", "kmax": "3"}, // inverted sweep range
	}
	for _, raw := range cases {
		_, err := runOn(t, ds, "clusters", raw)
		var bad *analysis.BadParamsError
		if !errors.As(err, &bad) {
			t.Errorf("%v: err = %v, want *analysis.BadParamsError", raw, err)
		}
	}
	_, err := runOn(t, ds, "cluster-sweep", map[string]string{"kmin": "6", "kmax": "3"})
	var bad *analysis.BadParamsError
	if !errors.As(err, &bad) {
		t.Errorf("sweep inverted range: err = %v, want *analysis.BadParamsError", err)
	}
}
