package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// tracerKey carries the request's tracer through the context, beside
// the metrics record.
type tracerKeyType struct{}

var tracerKey tracerKeyType

// requestTracer returns the request's tracer, nil when tracing is
// disabled. A nil tracer is a valid receiver for every method below —
// root() returns a nil span (itself a no-op receiver) and sink()
// returns nil — so handlers call through unconditionally.
func requestTracer(r *http.Request) *tracer {
	t, _ := r.Context().Value(tracerKey).(*tracer)
	return t
}

// tracer owns one request's trace: the span tree plus the engine event
// sink that turns ingest, compute and kernel events into timed child
// spans.
type tracer struct {
	tr *trace.Trace

	// Kernel events buffer until the compute event arrives (the
	// compute span they nest under is only created then, with its real
	// start). The engine stamps each one on receipt — the kernels
	// themselves never read the clock, which is what keeps registered
	// analyses clean under specvet's determinism gate.
	kmu  sync.Mutex
	kevs []kernelEventRec
}

type kernelEventRec struct {
	at    time.Time
	name  string
	attrs []trace.Attr
}

func newTracer(method, path, traceparent string, start time.Time) *tracer {
	return &tracer{tr: trace.New(method+" "+path, traceparent, start)}
}

// root returns the root span (nil on a nil tracer).
func (t *tracer) root() *trace.Span {
	if t == nil {
		return nil
	}
	return t.tr.Root()
}

// id returns the trace id ("" on a nil tracer), the value audit
// records and slow-request log lines carry.
func (t *tracer) id() string {
	if t == nil {
		return ""
	}
	return t.tr.TraceID()
}

// sink returns the engine event sink for this request, nil when
// untraced (a nil core.Request.Sink is the engine's "don't report"
// value).
func (t *tracer) sink() core.Sink {
	if t == nil {
		return nil
	}
	return t.event
}

// event turns the engine events this request paid for into spans. A
// memo hit opens no span, so a warm trace simply has no compute span.
func (t *tracer) event(ev core.Event) {
	switch ev.Kind {
	case core.EventIngest:
		t.ingest(ev)
	case core.EventKernel:
		t.kernel(ev)
	case core.EventCompute:
		t.compute(ev)
	}
}

// ingest renders the corpus ingestion as an "ingest" child of the
// root, with one "ingest-source" sub-span per ingested segment: each
// source of a merged corpus and each append batch.
// It fires only on the request that actually streamed the corpus, so
// the span marks who paid, not who waited.
func (t *tracer) ingest(ev core.Event) {
	sp := t.tr.Root().ChildAt("ingest", ev.Start)
	sp.SetAttr("source", ev.Source)
	sp.SetAttr("runs", strconv.Itoa(ev.Runs))
	if ev.Err != nil {
		sp.SetAttr("error", ev.Err.Error())
	}
	for _, p := range ev.Parts {
		ps := sp.ChildAt("ingest-source", p.Start)
		ps.SetAttr("source", p.Source)
		ps.SetAttr("runs", strconv.Itoa(p.Runs))
		ps.FinishAt(p.End)
	}
	sp.FinishAt(ev.End)
}

// kernel buffers one count-only kernel progress event with the time
// the engine stamped on it. The spans materialize later, in compute:
// event i's span covers the gap since event i-1 (the first one since
// compute start, so it also absorbs feature extraction ahead of the
// kernel).
func (t *tracer) kernel(ev core.Event) {
	k := ev.Kernel
	rec := kernelEventRec{at: ev.End, name: k.Kernel + "-" + k.Event}
	switch k.Kernel {
	case "kmeans":
		rec.attrs = []trace.Attr{
			{Key: "iteration", Value: strconv.Itoa(k.Index)},
			{Key: "moved", Value: strconv.Itoa(k.Moved)},
			{Key: "converged", Value: strconv.FormatBool(k.Converged)},
		}
	case "hac":
		rec.attrs = []trace.Attr{
			{Key: "batch", Value: strconv.Itoa(k.Index)},
			{Key: "merges", Value: strconv.Itoa(k.Merges)},
			{Key: "max_dist", Value: strconv.FormatFloat(k.MaxDist, 'g', -1, 64)},
		}
	default:
		rec.attrs = []trace.Attr{{Key: "index", Value: strconv.Itoa(k.Index)}}
	}
	t.kmu.Lock()
	t.kevs = append(t.kevs, rec)
	t.kmu.Unlock()
}

// compute renders one executed analysis as a "compute" child of the
// root, draining the buffered kernel events into its sub-spans.
func (t *tracer) compute(ev core.Event) {
	sp := t.tr.Root().ChildAt("compute", ev.Start)
	sp.SetAttr("analysis", ev.Name)
	if ev.Params != "" {
		sp.SetAttr("params", ev.Params)
	}
	if ev.Err != nil {
		sp.SetAttr("error", ev.Err.Error())
	}
	t.kmu.Lock()
	evs := t.kevs
	t.kevs = nil
	t.kmu.Unlock()
	prev := ev.Start
	for _, k := range evs {
		ks := sp.ChildAt(k.name, prev)
		for _, a := range k.attrs {
			ks.SetAttr(a.Key, a.Value)
		}
		ks.FinishAt(k.at)
		prev = k.at
	}
	sp.FinishAt(ev.End)
}

// tracesResponse is the GET /v1/traces body.
type tracesResponse struct {
	// Capacity is the ring bound; Recorded counts every trace ever
	// pushed, including overwritten ones.
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	// Traces are the resident completed traces, newest first.
	Traces []trace.Snapshot `json:"traces"`
}

// handleTraces serves the recent-trace ring: ?n= bounds the count,
// ?min_ms= keeps only traces at least that slow. The response is
// assembled from completed traces only (a trace joins the ring after
// its response is written), so this request never observes itself.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := s.traces.Capacity()
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		limit = n
	}
	var minNs int64
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "min_ms must be a non-negative integer")
			return
		}
		minNs = int64(ms) * int64(time.Millisecond)
	}
	resp := tracesResponse{
		Capacity: s.traces.Capacity(),
		Recorded: s.traces.Recorded(),
		Traces:   []trace.Snapshot{},
	}
	for _, tr := range s.traces.Snapshot() {
		if len(resp.Traces) == limit {
			break
		}
		if d := tr.DurationNs(); d < minNs {
			continue
		}
		resp.Traces = append(resp.Traces, tr.Snapshot())
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, resp)
}

// loopbackOnly wraps a pprof handler so only loopback clients reach
// it: profiles expose memory contents and must not leak past the host
// even when the server itself is bound wide. Non-loopback callers get
// the same 404 a server without -pprof serves, revealing nothing.
func loopbackOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
			http.NotFound(w, r)
			return
		}
		h(w, r)
	}
}

// mountPprof wires net/http/pprof onto the mux, loopback-gated. The
// index route also serves the named runtime profiles (heap, goroutine,
// block, mutex, …) by path suffix.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", loopbackOnly(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", loopbackOnly(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", loopbackOnly(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", loopbackOnly(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", loopbackOnly(pprof.Trace))
}

// withTrace plants the tracer in the request context (when tracing is
// enabled) and, after the handler chain returns, finishes the root
// span, publishes the completed trace to the ring, and emits the slow-
// request log line when the request crossed the configured threshold.
// It runs inside withMetrics so the trace covers exactly what the
// metrics total covers.
func (s *Server) withTrace(r *http.Request, start time.Time) (*http.Request, *tracer) {
	if s.traces == nil {
		return r, nil
	}
	t := newTracer(r.Method, r.URL.Path, r.Header.Get("Traceparent"), start)
	return r.WithContext(context.WithValue(r.Context(), tracerKey, t)), t
}

// finishTrace completes and publishes t (no-op on nil).
func (s *Server) finishTrace(t *tracer, r *http.Request, status int, d time.Duration) {
	if t == nil {
		return
	}
	root := t.tr.Root()
	root.SetAttr("status", strconv.Itoa(status))
	root.Finish()
	s.traces.Add(t.tr)
	if s.cfg.SlowTrace > 0 && d >= s.cfg.SlowTrace && s.cfg.Logf != nil {
		s.cfg.Logf("slow request: %s %s %d %s trace=%s",
			r.Method, r.URL.RequestURI(), status,
			d.Round(time.Microsecond), t.tr.TraceID())
	}
}
