package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// postRun POSTs one result-file body to /v1/runs.
func postRun(t testing.TB, s *Server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// resultFileBytes renders runs to result files on disk and reads one
// back — the exact body a client would POST.
func resultFileBytes(t testing.TB, r *model.Run) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, []*model.Run{r}, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, r.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// funnelRaw decodes the Raw corpus count out of a funnel response body.
func funnelRaw(t testing.TB, body []byte) int {
	t.Helper()
	var resp struct {
		Value struct{ Raw int }
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode funnel response: %v", err)
	}
	return resp.Value.Raw
}

// TestLiveAppendRollover walks the satellite scenario end to end: warm
// 304 before the append, POST /v1/runs, 200 with a rolled ETag after,
// and the generation/append counters surfacing in /v1/stats, /v1/pool,
// and /metrics.
func TestLiveAppendRollover(t *testing.T) {
	runs := testRuns(t)
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true})

	first := get(t, s, "/v1/analyses/funnel")
	if first.Code != http.StatusOK {
		t.Fatalf("funnel = %d: %s", first.Code, first.Body)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on live funnel response")
	}
	if got := funnelRaw(t, first.Body.Bytes()); got != len(base) {
		t.Fatalf("funnel.Raw = %d, want %d", got, len(base))
	}
	// Warm revalidation before the append: nothing changed, 304.
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag); rec.Code != http.StatusNotModified {
		t.Fatalf("pre-append revalidation = %d, want 304", rec.Code)
	}

	rec := postRun(t, s, resultFileBytes(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d: %s", rec.Code, rec.Body)
	}
	var ar appendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.ID != extra.ID || ar.Generation != 1 {
		t.Fatalf("append response = %+v, want id=%s generation=1", ar, extra.ID)
	}

	// The old validator no longer matches: full 200 with the appended
	// run in the corpus and a rolled ETag.
	after := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag)
	if after.Code != http.StatusOK {
		t.Fatalf("post-append revalidation = %d, want 200", after.Code)
	}
	if after.Header().Get("ETag") == etag {
		t.Error("ETag did not roll across the append")
	}
	if got := funnelRaw(t, after.Body.Bytes()); got != len(base)+1 {
		t.Errorf("post-append funnel.Raw = %d, want %d", got, len(base)+1)
	}

	var stats StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Live == nil {
		t.Fatal("/v1/stats has no live section on a live server")
	}
	if stats.Live.Generation != 1 || stats.Live.Appends != 1 || stats.Live.AppendedRuns != 1 {
		t.Errorf("live stats = %+v, want generation/appends/appended_runs all 1", *stats.Live)
	}
	var pool PoolSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/pool").Body.Bytes(), &pool); err != nil {
		t.Fatal(err)
	}
	if len(pool.Engines) != 1 {
		t.Fatalf("pool holds %d engines, want 1", len(pool.Engines))
	}
	ent := pool.Engines[0]
	if ent.Generation != 1 || ent.RunsAppended != 1 || ent.RunsIngested != len(base)+1 {
		t.Errorf("pool view = gen %d appended %d ingested %d, want 1/1/%d",
			ent.Generation, ent.RunsAppended, ent.RunsIngested, len(base)+1)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specserve_generation 1",
		"specserve_appends_total 1",
		"specserve_appended_runs_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A body the parser rejects is the client's fault.
	if rec := postRun(t, s, []byte("not a result file")); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage POST = %d, want 400", rec.Code)
	}
}

// TestLiveDisabled: a static server exposes none of the append plane.
func TestLiveDisabled(t *testing.T) {
	s, _ := testServer(t, Config{})
	if rec := postRun(t, s, []byte("x")); rec.Code != http.StatusNotFound {
		t.Errorf("POST /v1/runs on static server = %d, want 404", rec.Code)
	}
	if _, err := s.AppendRuns(testRuns(t)[0]); err == nil {
		t.Error("AppendRuns succeeded on a static server")
	}
	if _, err := s.ResetPool("test"); err == nil {
		t.Error("ResetPool succeeded on a static server")
	}
	if s.Generation() != 0 {
		t.Errorf("static Generation = %d", s.Generation())
	}
	var stats StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Live != nil {
		t.Errorf("static /v1/stats grew a live section: %+v", *stats.Live)
	}
	if m := get(t, s, "/metrics").Body.String(); strings.Contains(m, "specserve_generation") {
		t.Error("static /metrics exposes specserve_generation")
	}
}

// TestLiveAppendScopes: an append reaches each resident scope through
// its own predicate — the matching scope's corpus grows, the
// non-matching scope's does not — while every scope's ETag rolls (the
// fingerprint composes the generation).
func TestLiveAppendScopes(t *testing.T) {
	runs := testRuns(t)
	var amd *model.Run
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			amd = r
			break
		}
	}
	if amd == nil {
		t.Fatal("test corpus has no AMD run")
	}
	s := New(Config{Base: core.SliceSource(runs), Live: true})

	amdBefore := get(t, s, "/v1/analyses/funnel?filter=vendor=amd")
	intelBefore := get(t, s, "/v1/analyses/funnel?filter=vendor=intel")
	extra := *amd
	extra.ID = "live-scope-extra"
	if _, err := s.AppendRuns(&extra); err != nil {
		t.Fatal(err)
	}
	amdAfter := get(t, s, "/v1/analyses/funnel?filter=vendor=amd")
	intelAfter := get(t, s, "/v1/analyses/funnel?filter=vendor=intel")

	if got, want := funnelRaw(t, amdAfter.Body.Bytes()), funnelRaw(t, amdBefore.Body.Bytes())+1; got != want {
		t.Errorf("amd scope funnel.Raw = %d, want %d", got, want)
	}
	if got, want := funnelRaw(t, intelAfter.Body.Bytes()), funnelRaw(t, intelBefore.Body.Bytes()); got != want {
		t.Errorf("intel scope funnel.Raw = %d, want %d (append must not leak)", got, want)
	}
	for _, pair := range [][2]*httptest.ResponseRecorder{
		{amdBefore, amdAfter}, {intelBefore, intelAfter},
	} {
		if pair[0].Header().Get("ETag") == pair[1].Header().Get("ETag") {
			t.Error("scope ETag did not roll across the append")
		}
	}
}

// TestLiveAbsorbBaseGrowth covers the watcher path: a result file lands
// in the corpus directory, the watcher parses it and calls
// AbsorbBaseGrowth. Resident engines fold it in through the delta path;
// a scope built afterwards streams it from the directory — and the run
// arrives exactly once on each path.
func TestLiveAbsorbBaseGrowth(t *testing.T) {
	runs := testRuns(t)
	dir := t.TempDir()
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	if err := core.WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: core.DirSource{Dir: dir}, Live: true})
	before := get(t, s, "/v1/analyses/funnel")
	if got := funnelRaw(t, before.Body.Bytes()); got != len(base) {
		t.Fatalf("funnel.Raw = %d, want %d", got, len(base))
	}

	// The "watcher" sees a new file, parses it, absorbs it.
	if err := core.WriteCorpus(dir, []*model.Run{extra}, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err := core.ParseResultFile(filepath.Join(dir, extra.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AbsorbBaseGrowth(parsed); err != nil {
		t.Fatal(err)
	}

	// The warm engine absorbed it via the delta path — once.
	after := get(t, s, "/v1/analyses/funnel")
	if got := funnelRaw(t, after.Body.Bytes()); got != len(base)+1 {
		t.Errorf("warm engine funnel.Raw = %d, want %d", got, len(base)+1)
	}
	if before.Header().Get("ETag") == after.Header().Get("ETag") {
		t.Error("ETag did not roll across the absorbed growth")
	}
	// A cold scope streams the directory — which already holds the
	// file — so it must see the run exactly once too, not twice.
	vendor := strings.ToLower(extra.CPUVendor.String())
	want := 1
	for _, r := range base {
		if r.CPUVendor == extra.CPUVendor {
			want++
		}
	}
	cold := get(t, s, "/v1/analyses/funnel?filter=vendor="+vendor)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold scope = %d: %s", cold.Code, cold.Body)
	}
	if got := funnelRaw(t, cold.Body.Bytes()); got != want {
		t.Errorf("cold scope funnel.Raw = %d, want %d (each run exactly once)", got, want)
	}
}

// TestLiveResetPool: a mutation the delta path cannot express drops
// every engine and rolls the generation, so rebuilt scopes serve fresh
// fingerprints.
func TestLiveResetPool(t *testing.T) {
	runs := testRuns(t)
	s := New(Config{Base: core.SliceSource(runs), Live: true})
	before := get(t, s, "/v1/analyses/funnel")
	if s.pool.len() != 1 {
		t.Fatalf("pool holds %d entries", s.pool.len())
	}
	n, err := s.ResetPool("file_modified")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reset dropped %d entries, want 1", n)
	}
	if s.pool.len() != 0 {
		t.Errorf("pool holds %d entries after reset", s.pool.len())
	}
	if s.Generation() != 1 {
		t.Errorf("generation = %d after reset, want 1", s.Generation())
	}
	after := get(t, s, "/v1/analyses/funnel")
	if after.Code != http.StatusOK {
		t.Fatalf("post-reset funnel = %d", after.Code)
	}
	if before.Header().Get("ETag") == after.Header().Get("ETag") {
		t.Error("ETag did not roll across the reset")
	}
}

// TestLiveConcurrentAppendReads is the race-correctness pin: readers
// hammer one scope while appends land, and every 200 must be
// internally consistent — one ETag never validates two different
// bodies (the ETag a response carries is never older, or newer, than
// the data it serves), and each reader's corpus counts never move
// backwards. Run under -race in CI.
func TestLiveConcurrentAppendReads(t *testing.T) {
	runs := testRuns(t)
	base := runs[:len(runs)-1]
	tmpl := *runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}

	const readers, appends = 4, 24
	type obsPair struct {
		etag string
		body string
		raw  int
	}
	results := make([][]obsPair, readers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, "/v1/analyses/funnel")
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: status %d", i, rec.Code)
					return
				}
				results[i] = append(results[i], obsPair{
					etag: rec.Header().Get("ETag"),
					body: rec.Body.String(),
					raw:  funnelRaw(t, rec.Body.Bytes()),
				})
			}
		}(i)
	}
	for n := 0; n < appends; n++ {
		r := tmpl
		r.ID = fmt.Sprintf("race-append-%d", n)
		if _, err := s.AppendRuns(&r); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	byETag := map[string]string{}
	for i, seq := range results {
		prev := -1
		for _, p := range seq {
			if p.raw < prev {
				t.Fatalf("reader %d saw the corpus shrink: %d after %d", i, p.raw, prev)
			}
			prev = p.raw
			if body, seen := byETag[p.etag]; seen && body != p.body {
				t.Fatalf("one ETag validated two bodies (etag %s)", p.etag)
			} else if !seen {
				byETag[p.etag] = p.body
			}
		}
	}
	if s.Generation() != appends {
		t.Errorf("generation = %d, want %d", s.Generation(), appends)
	}
}

// TestLiveEvictedScopeServesSameBytes: a scope engine evicted after an
// append and rebuilt from the grown source serves the mini-batch
// clustering byte for byte as the engine that absorbed the append did,
// under the same ETag — the rebuilt engine replays the append lineage,
// so its warm starts match. The value is the seed-14 corpus's gen-1
// body pinned in the cluster package's lineage test.
func TestLiveEvictedScopeServesSameBytes(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := len(runs)
	s := New(Config{Base: core.SliceSource(runs[:n-200]), Live: true, PoolSize: 1, Workers: 2})
	const path = "/v1/analyses/clusters?algo=minibatch&k=3"
	if rec := get(t, s, path); rec.Code != http.StatusOK {
		t.Fatalf("gen 0 = %d: %s", rec.Code, rec.Body)
	}
	if _, err := s.AppendRuns(runs[n-200:]...); err != nil {
		t.Fatal(err)
	}
	live := get(t, s, path)
	if live.Code != http.StatusOK {
		t.Fatalf("gen 1 = %d: %s", live.Code, live.Body)
	}
	// A request for another scope evicts the whole-corpus engine.
	if rec := get(t, s, "/v1/analyses/funnel?filter=vendor=amd"); rec.Code != http.StatusOK {
		t.Fatalf("evicting scope = %d: %s", rec.Code, rec.Body)
	}
	rebuilt := get(t, s, path)
	if rebuilt.Code != http.StatusOK {
		t.Fatalf("rebuilt gen 1 = %d: %s", rebuilt.Code, rebuilt.Body)
	}
	var stats StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.EngineBuilds != 3 {
		t.Fatalf("engine builds = %d, want 3 (whole corpus, scope, whole corpus again)", stats.EngineBuilds)
	}
	if rebuilt.Header().Get("ETag") != live.Header().Get("ETag") {
		t.Fatal("the rebuilt engine's ETag differs from the live one's")
	}
	if !bytes.Equal(rebuilt.Body.Bytes(), live.Body.Bytes()) {
		t.Fatalf("one ETag, two bodies:\nlive:    %.200s\nrebuilt: %.200s", live.Body, rebuilt.Body)
	}
	var resp struct{ Value cluster.Result }
	if err := json.Unmarshal(rebuilt.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	value, err := json.Marshal(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(value))[:16]; got != "4d8350ba6526f06b" {
		t.Errorf("gen-1 value hashes to %s, want 4d8350ba6526f06b", got)
	}
}

// filteredSplit returns testRuns minus one AMD and one Intel run, plus
// those two: the base corpus and the runs that arrive later.
func filteredSplit(t *testing.T) (base []*model.Run, amd, intel *model.Run) {
	t.Helper()
	for _, r := range testRuns(t) {
		switch {
		case amd == nil && r.CPUVendor == model.VendorAMD:
			amd = r
		case intel == nil && r.CPUVendor == model.VendorIntel:
			intel = r
		default:
			base = append(base, r)
		}
	}
	if amd == nil || intel == nil {
		t.Fatal("test corpus needs an AMD and an Intel run")
	}
	return base, amd, intel
}

// countVendor counts the runs of one vendor.
func countVendor(runs []*model.Run, v model.CPUVendor) int {
	n := 0
	for _, r := range runs {
		if r.CPUVendor == v {
			n++
		}
	}
	return n
}

// TestLiveFilteredBaseRefusesPostedRun: under a filtered base (specserve
// -filter), a POSTed run outside the filter is a 422 naming it, and
// neither the generation nor any served byte moves; a run inside it is
// appended as usual.
func TestLiveFilteredBaseRefusesPostedRun(t *testing.T) {
	base, amd, intel := filteredSplit(t)
	keep, err := core.ParseFilter("vendor=amd")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Live: true,
		Base: core.FilterSource{Inner: core.SliceSource(base), Keep: keep, Desc: "vendor=amd"}})
	before := get(t, s, "/v1/analyses/funnel")
	if got, want := funnelRaw(t, before.Body.Bytes()), countVendor(base, model.VendorAMD); got != want {
		t.Fatalf("funnel.Raw = %d, want %d", got, want)
	}

	rec := postRun(t, s, resultFileBytes(t, intel))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("POST of an Intel run = %d, want 422: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "vendor=amd") {
		t.Errorf("422 body does not name the filter: %s", rec.Body)
	}
	if _, err := s.AppendRuns(intel); err == nil {
		t.Error("AppendRuns accepted a run outside the filter")
	}
	if g := s.Generation(); g != 0 {
		t.Errorf("generation = %d after refused runs, want 0", g)
	}
	after := get(t, s, "/v1/analyses/funnel")
	if after.Header().Get("ETag") != before.Header().Get("ETag") || after.Body.String() != before.Body.String() {
		t.Error("a refused run changed the served funnel")
	}

	if rec := postRun(t, s, resultFileBytes(t, amd)); rec.Code != http.StatusOK {
		t.Fatalf("POST of an AMD run = %d: %s", rec.Code, rec.Body)
	}
	grown := get(t, s, "/v1/analyses/funnel")
	if got, want := funnelRaw(t, grown.Body.Bytes()), countVendor(base, model.VendorAMD)+1; got != want {
		t.Errorf("funnel.Raw = %d after the AMD POST, want %d", got, want)
	}
}

// TestLiveFilteredBaseWatcherGrowth: under a filtered base, the watcher
// path refuses a new file outside the filter, so the engine that
// absorbs growth live and the engine rebuilt after eviction serve the
// same bytes under the same ETag.
func TestLiveFilteredBaseWatcherGrowth(t *testing.T) {
	base, amd, intel := filteredSplit(t)
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	keep, err := core.ParseFilter("vendor=amd")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Live: true, PoolSize: 1,
		Base: core.FilterSource{Inner: core.DirSource{Dir: dir}, Keep: keep, Desc: "vendor=amd"}})
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusOK {
		t.Fatalf("gen 0 = %d: %s", rec.Code, rec.Body)
	}

	// Both files land; the watcher parses them.
	if err := core.WriteCorpus(dir, []*model.Run{amd, intel}, 0); err != nil {
		t.Fatal(err)
	}
	parse := func(r *model.Run) *model.Run {
		parsed, err := core.ParseResultFile(filepath.Join(dir, r.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	if err := s.Admit(parse(intel)); err == nil {
		t.Fatal("Admit accepted an Intel run under vendor=amd")
	}
	if _, err := s.AbsorbBaseGrowth(parse(intel)); err == nil {
		t.Fatal("AbsorbBaseGrowth accepted an Intel run under vendor=amd")
	}
	if g := s.Generation(); g != 0 {
		t.Fatalf("generation = %d after a refused absorb, want 0", g)
	}
	if _, err := s.AbsorbBaseGrowth(parse(amd)); err != nil {
		t.Fatal(err)
	}

	live := get(t, s, "/v1/analyses/funnel")
	if got, want := funnelRaw(t, live.Body.Bytes()), countVendor(base, model.VendorAMD)+1; got != want {
		t.Errorf("live funnel.Raw = %d, want %d", got, want)
	}
	// A request for another scope evicts the whole-corpus engine.
	if rec := get(t, s, "/v1/analyses/funnel?filter=since=2015"); rec.Code != http.StatusOK {
		t.Fatalf("evicting scope = %d: %s", rec.Code, rec.Body)
	}
	rebuilt := get(t, s, "/v1/analyses/funnel")
	if st := s.Stats(); st.EngineBuilds != 3 {
		t.Fatalf("engine builds = %d, want 3 (whole corpus, scope, whole corpus again)", st.EngineBuilds)
	}
	if rebuilt.Header().Get("ETag") != live.Header().Get("ETag") {
		t.Fatal("the rebuilt engine's ETag differs from the live one's")
	}
	if !bytes.Equal(rebuilt.Body.Bytes(), live.Body.Bytes()) {
		t.Fatalf("one ETag, two bodies:\nlive:    %.200s\nrebuilt: %.200s", live.Body, rebuilt.Body)
	}
}
