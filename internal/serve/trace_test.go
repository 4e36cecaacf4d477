package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

func getTraces(t *testing.T, s *Server, path string) tracesResponse {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// findSpan walks the span tree depth-first for the first span named
// name.
func findSpan(sp trace.SpanSnapshot, name string) (trace.SpanSnapshot, bool) {
	if sp.Name == name {
		return sp, true
	}
	for _, c := range sp.Children {
		if got, ok := findSpan(c, name); ok {
			return got, true
		}
	}
	return trace.SpanSnapshot{}, false
}

func attrValue(sp trace.SpanSnapshot, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestTraceColdAnalysis pins the acceptance shape: a cold clustering
// request leaves a trace whose tree holds queue_wait, build, ingest,
// compute, and kmeans-iteration spans with non-zero durations, plus
// the response's ETag and audit digest as root attributes.
func TestTraceColdAnalysis(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/clusters?k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("analysis status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Traceparent") == "" {
		t.Fatal("no Traceparent response header")
	}
	resp := getTraces(t, s, "/v1/traces")
	if resp.Recorded != 1 || len(resp.Traces) != 1 {
		t.Fatalf("recorded %d, resident %d, want 1 and 1", resp.Recorded, len(resp.Traces))
	}
	tr := resp.Traces[0]
	if tr.Root.Name != "GET /v1/analyses/clusters" {
		t.Fatalf("root span %q", tr.Root.Name)
	}
	if tr.DurationNs <= 0 {
		t.Fatalf("root duration %d", tr.DurationNs)
	}
	for _, name := range []string{"queue_wait", "build", "ingest", "compute", "kmeans-iteration", "serialize"} {
		sp, ok := findSpan(tr.Root, name)
		if !ok {
			t.Fatalf("span %q missing from cold trace", name)
		}
		if sp.DurationNs < 0 {
			t.Fatalf("span %q unfinished", name)
		}
		// Stage spans measure real work; only the queue can legally take
		// zero time on an idle server.
		if name != "queue_wait" && sp.DurationNs == 0 {
			t.Fatalf("span %q has zero duration", name)
		}
	}
	compute, _ := findSpan(tr.Root, "compute")
	if v, ok := attrValue(compute, "analysis"); !ok || v != "clusters" {
		t.Fatalf("compute analysis attr = %q, %v", v, ok)
	}
	iter, _ := findSpan(tr.Root, "kmeans-iteration")
	if _, ok := attrValue(iter, "moved"); !ok {
		t.Fatalf("kmeans-iteration lacks moved attr: %+v", iter.Attrs)
	}
	if v, ok := attrValue(tr.Root, "status"); !ok || v != "200" {
		t.Fatalf("root status attr = %q, %v", v, ok)
	}
	if _, ok := attrValue(tr.Root, "etag"); !ok {
		t.Fatal("root lacks etag attr")
	}
	if _, ok := attrValue(tr.Root, "audit_digest"); !ok {
		t.Fatal("root lacks audit_digest attr")
	}

	// The warm repeat pays neither ingest nor compute: its trace must
	// not claim work it skipped.
	get(t, s, "/v1/analyses/clusters?k=2")
	warm := getTraces(t, s, "/v1/traces").Traces[0]
	for _, name := range []string{"ingest", "compute", "kmeans-iteration"} {
		if _, ok := findSpan(warm.Root, name); ok {
			t.Fatalf("warm trace has a %q span", name)
		}
	}
	if _, ok := findSpan(warm.Root, "serialize"); !ok {
		t.Fatal("warm trace lacks serialize span")
	}
}

// TestTraceHACSpans covers the second kernel: an HAC request records
// merge-batch spans.
func TestTraceHACSpans(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/clusters?algo=hac&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	tr := getTraces(t, s, "/v1/traces").Traces[0]
	sp, ok := findSpan(tr.Root, "hac-merge-batch")
	if !ok {
		t.Fatal("no hac-merge-batch span in HAC trace")
	}
	if _, ok := attrValue(sp, "merges"); !ok {
		t.Fatalf("merge-batch lacks merges attr: %+v", sp.Attrs)
	}
}

// TestTraceParentPropagation: an inbound W3C header donates the trace
// id; the response echoes it with a locally minted parent.
func TestTraceParentPropagation(t *testing.T) {
	s, _ := testServer(t, Config{})
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := get(t, s, "/healthz", "Traceparent", in)
	out := rec.Header().Get("Traceparent")
	tid, pid, ok := ParseOutbound(out)
	if !ok {
		t.Fatalf("outbound traceparent %q does not parse", out)
	}
	if tid != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not adopted: %q", tid)
	}
	if pid == "00f067aa0ba902b7" {
		t.Fatalf("outbound parent must be the local root span, got the inbound parent")
	}
	tr := getTraces(t, s, "/v1/traces").Traces[0]
	if tr.TraceID != tid || tr.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("ring trace identity = (%s, %s)", tr.TraceID, tr.ParentSpanID)
	}
}

// ParseOutbound re-exports trace.ParseTraceparent for the test above
// without importing it at each call site.
func ParseOutbound(h string) (string, string, bool) { return trace.ParseTraceparent(h) }

// TestTracesQueryParams pins ?n=, ?min_ms=, and their validation.
func TestTracesQueryParams(t *testing.T) {
	s, _ := testServer(t, Config{})
	for i := 0; i < 5; i++ {
		get(t, s, "/healthz")
	}
	if got := getTraces(t, s, "/v1/traces?n=2"); len(got.Traces) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(got.Traces))
	}
	// min_ms=0 admits everything; an absurd threshold admits nothing —
	// and repeating the filtered query is deterministic for a quiet
	// server because the ring only changes when requests finish.
	if got := getTraces(t, s, "/v1/traces?min_ms=0"); len(got.Traces) == 0 {
		t.Fatal("min_ms=0 filtered everything out")
	}
	first := getTraces(t, s, "/v1/traces?min_ms=3600000")
	if len(first.Traces) != 0 {
		t.Fatalf("min_ms=1h admitted %d traces", len(first.Traces))
	}
	for _, bad := range []string{"/v1/traces?n=0", "/v1/traces?n=x", "/v1/traces?min_ms=-1", "/v1/traces?min_ms=x"} {
		if rec := get(t, s, bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestTraceRingWraparoundServed: a tiny ring serves only the newest
// traces once it wraps.
func TestTraceRingWraparoundServed(t *testing.T) {
	s, _ := testServer(t, Config{TraceBufferSize: 3})
	for i := 0; i < 7; i++ {
		get(t, s, "/healthz")
	}
	resp := getTraces(t, s, "/v1/traces")
	if resp.Capacity != 3 || resp.Recorded != 7 || len(resp.Traces) != 3 {
		t.Fatalf("capacity %d recorded %d resident %d", resp.Capacity, resp.Recorded, len(resp.Traces))
	}
	for i := 1; i < len(resp.Traces); i++ {
		if resp.Traces[i-1].Seq <= resp.Traces[i].Seq {
			t.Fatal("traces not newest-first")
		}
	}
}

// TestTracingDisabled: a negative buffer removes the route, the
// response header, and the per-request tracer.
func TestTracingDisabled(t *testing.T) {
	s, _ := testServer(t, Config{TraceBufferSize: -1})
	rec := get(t, s, "/v1/analyses/clusters?k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("analysis status = %d", rec.Code)
	}
	if h := rec.Header().Get("Traceparent"); h != "" {
		t.Fatalf("untraced response has Traceparent %q", h)
	}
	if rec := get(t, s, "/v1/traces"); rec.Code != http.StatusNotFound {
		t.Fatalf("/v1/traces = %d with tracing disabled, want 404", rec.Code)
	}
}

// TestSlowTraceLog: requests at or above the threshold log one slow
// line carrying the trace id; fast requests do not.
func TestSlowTraceLog(t *testing.T) {
	var mu strings.Builder
	s, _ := testServer(t, Config{
		SlowTrace: time.Nanosecond, // every request qualifies
		Logf:      func(f string, a ...any) { fmt.Fprintf(&mu, f+"\n", a...) },
	})
	get(t, s, "/healthz")
	logged := mu.String()
	if !strings.Contains(logged, "slow request:") {
		t.Fatalf("no slow line in log:\n%s", logged)
	}
	if !strings.Contains(logged, "trace=") {
		t.Fatalf("slow line lacks trace id:\n%s", logged)
	}
}

// TestPprofGate: the flag mounts /debug/pprof for loopback clients
// only; without the flag the route 404s.
func TestPprofGate(t *testing.T) {
	s, _ := testServer(t, Config{Pprof: true})
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/heap", nil)
	req.RemoteAddr = "127.0.0.1:54321"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("loopback heap profile = %d", rec.Code)
	}
	// httptest.NewRequest's default RemoteAddr (192.0.2.1) is not
	// loopback: the gate must serve the same 404 an unmounted route
	// would.
	if rec := get(t, s, "/debug/pprof/heap"); rec.Code != http.StatusNotFound {
		t.Fatalf("non-loopback heap profile = %d, want 404", rec.Code)
	}
	off, _ := testServer(t, Config{})
	if rec := get(t, off, "/debug/pprof/heap"); rec.Code != http.StatusNotFound {
		t.Fatalf("heap profile without -pprof = %d, want 404", rec.Code)
	}
}

// TestStatsAndMetricsSurfaceTracing: pool capacity and the trace ring
// show up consistently in /v1/stats and /metrics.
func TestStatsAndMetricsSurfaceTracing(t *testing.T) {
	s, _ := testServer(t, Config{PoolSize: 5})
	get(t, s, "/healthz")
	var stats StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PoolCapacity != 5 {
		t.Fatalf("pool capacity %d, want 5", stats.PoolCapacity)
	}
	if stats.Traces == nil || stats.Traces.Capacity != DefaultTraceBuffer || stats.Traces.Recorded < 1 {
		t.Fatalf("trace stats %+v", stats.Traces)
	}
	page := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specserve_pool_capacity 5",
		"specserve_trace_ring_capacity " + fmt.Sprint(DefaultTraceBuffer),
		"specserve_traces_recorded_total",
		"specserve_runtime_goroutines",
		"specserve_runtime_heap_inuse_bytes",
		"specserve_runtime_gc_pause_seconds_count",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page lacks %q", want)
		}
	}
}

// TestTracingNeverChangesFilteredScope: a scope over a filtered base is
// a filter of a filter, and tracing the request that ingests it must
// not change what it ingests — the same body under the same ETag with
// the trace ring on and with tracing disabled.
func TestTracingNeverChangesFilteredScope(t *testing.T) {
	runs := testRuns(t)
	keep, err := core.ParseFilter("vendor=amd|intel")
	if err != nil {
		t.Fatal(err)
	}
	amd := 0
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			amd++
		}
	}
	var recs [2]*httptest.ResponseRecorder
	for i, size := range []int{0, -1} {
		s := New(Config{TraceBufferSize: size,
			Base: core.FilterSource{Inner: core.SliceSource(runs), Keep: keep, Desc: "vendor=amd|intel"}})
		recs[i] = get(t, s, "/v1/analyses/funnel?filter=vendor=amd")
		if recs[i].Code != http.StatusOK {
			t.Fatalf("TraceBufferSize %d: status %d: %s", size, recs[i].Code, recs[i].Body)
		}
		if got := funnelRaw(t, recs[i].Body.Bytes()); got != amd {
			t.Errorf("TraceBufferSize %d: funnel.Raw = %d, want %d", size, got, amd)
		}
	}
	if recs[0].Header().Get("ETag") != recs[1].Header().Get("ETag") {
		t.Error("tracing changed the ETag")
	}
	if recs[0].Body.String() != recs[1].Body.String() {
		t.Errorf("one ETag, two bodies:\ntraced:   %.200s\nuntraced: %.200s", recs[0].Body, recs[1].Body)
	}
}

// TestTraceIngestSourceSpans: ingesting a merged corpus gives the
// ingest span one ingest-source sub-span per merged source, whose run
// counts add up to the ingest span's.
func TestTraceIngestSourceSpans(t *testing.T) {
	runs := testRuns(t)
	parts := core.MergeSource{core.SliceSource(runs[:10]), core.SliceSource(runs[10:])}
	s := New(Config{Base: parts})
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	ingest, ok := findSpan(getTraces(t, s, "/v1/traces").Traces[0].Root, "ingest")
	if !ok {
		t.Fatal("cold trace has no ingest span")
	}
	if v, _ := attrValue(ingest, "runs"); v != strconv.Itoa(len(runs)) {
		t.Fatalf("ingest runs = %q, want %d", v, len(runs))
	}
	if len(ingest.Children) != len(parts) {
		t.Fatalf("ingest has %d sub-spans, want one per merged source (%d)", len(ingest.Children), len(parts))
	}
	sum := 0
	for i, sp := range ingest.Children {
		if sp.Name != "ingest-source" {
			t.Errorf("sub-span %d is %q, want ingest-source", i, sp.Name)
		}
		if v, _ := attrValue(sp, "source"); v != parts[i].Name() {
			t.Errorf("sub-span %d source = %q, want %q", i, v, parts[i].Name())
		}
		v, _ := attrValue(sp, "runs")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("sub-span %d runs = %q", i, v)
		}
		sum += n
	}
	if sum != len(runs) {
		t.Errorf("sub-span runs sum to %d, want the ingest span's %d", sum, len(runs))
	}
}
