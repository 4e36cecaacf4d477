package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nsDuration converts event nanoseconds to a time.Duration.
func nsDuration(ns int64) time.Duration { return time.Duration(ns) }

// Stage names for per-stage timing. They are the `stage` label of the
// Prometheus exposition and the keys of the /v1/stats stage breakdown,
// so they are part of the wire contract.
const (
	StageQueueWait   = "queue_wait"   // blocked at the concurrency gate
	StageEngineBuild = "engine_build" // pool miss: fingerprint + engine construction
	StageIngest      = "ingest"       // corpus streamed through the classification funnel
	StageCompute     = "compute"      // analysis function execution (memo misses only)
	StageSerialize   = "serialize"    // response encoding
)

// Stages lists every stage name in exposition order.
var Stages = []string{
	StageQueueWait, StageEngineBuild, StageIngest, StageCompute, StageSerialize,
}

// RequestMetrics is one request's outcome and the stages only the
// request itself can time: queue wait at the concurrency gate and
// response serialization (zero when never entered — a 304 has no
// serialize time). Engine build, ingest and compute are timed once per
// actual occurrence by the pool and the engine's own events, not per
// request.
type RequestMetrics struct {
	// Analysis is the registry name served ("" for non-analysis
	// endpoints); Params its canonical parameter string.
	Analysis string
	Params   string
	// Status is the final HTTP status.
	Status int

	QueueWaitNs int64
	SerializeNs int64
	// TotalNs covers the whole request, gate entry to response end.
	TotalNs int64
}

// Collector aggregates request metrics: one histogram per stage, one
// end-to-end latency histogram per analysis, and the event counters the
// exposition reports. All methods are safe for concurrent use.
type Collector struct {
	mu         sync.Mutex
	stages     map[string]*Histogram
	byAnalysis map[string]*Histogram

	// Event counters fed by the serving layer and engine events.
	// Engine builds are deliberately absent: the pool that performs
	// them owns that count, and the exposition takes it as a gauge
	// input so the two surfaces cannot drift.
	requests    atomic.Int64
	notModified atomic.Int64
	clientErrs  atomic.Int64 // 4xx responses
	serverErrs  atomic.Int64 // 5xx responses
	ingests     atomic.Int64
	computes    atomic.Int64
	memoHits    atomic.Int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		stages:     make(map[string]*Histogram, len(Stages)),
		byAnalysis: make(map[string]*Histogram),
	}
}

func (c *Collector) stageHist(stage string) *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.stages[stage]
	if h == nil {
		h = &Histogram{}
		c.stages[stage] = h
	}
	return h
}

func (c *Collector) analysisHist(name string) *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.byAnalysis[name]
	if h == nil {
		h = &Histogram{}
		c.byAnalysis[name] = h
	}
	return h
}

// ObserveRequest folds one finished request into the aggregates: the
// request-owned stages (queue wait, serialize) into their stage
// histograms, the total into the analysis's latency histogram (when
// the request named one), and the status into the request/304/error
// counters. Build, ingest, and compute stages are deliberately NOT
// folded in here — those histograms aggregate the true once-per-event
// costs via ObserveBuild/ObserveIngest/ObserveCompute, once per event
// rather than once per request that waited on it.
func (c *Collector) ObserveRequest(m *RequestMetrics) {
	if m == nil {
		return
	}
	c.requests.Add(1)
	switch {
	case m.Status == 304:
		c.notModified.Add(1)
	case m.Status >= 500:
		c.serverErrs.Add(1)
	case m.Status >= 400:
		c.clientErrs.Add(1)
	}
	if m.QueueWaitNs > 0 {
		c.stageHist(StageQueueWait).Observe(nsDuration(m.QueueWaitNs))
	}
	if m.SerializeNs > 0 {
		c.stageHist(StageSerialize).Observe(nsDuration(m.SerializeNs))
	}
	if m.Analysis != "" && m.TotalNs > 0 {
		c.analysisHist(m.Analysis).Observe(nsDuration(m.TotalNs))
	}
}

// ObserveBuild records one engine construction (pool miss) into the
// stage histogram; the build count itself is owned by the pool.
func (c *Collector) ObserveBuild(ns int64) {
	c.stageHist(StageEngineBuild).Observe(nsDuration(ns))
}

// ObserveIngest records one corpus ingestion, as reported by the
// engine's ingest event — the once-per-engine cost, counted exactly
// once no matter how many requests waited on it.
func (c *Collector) ObserveIngest(ns int64) {
	c.ingests.Add(1)
	c.stageHist(StageIngest).Observe(nsDuration(ns))
}

// ObserveCompute records one analysis computation (memo miss). The
// per-analysis histograms aggregate request latency, not compute time —
// compute feeds only the stage histogram, so a memoized analysis's
// request latency distribution stays comparable across hit and miss.
func (c *Collector) ObserveCompute(ns int64) {
	c.computes.Add(1)
	c.stageHist(StageCompute).Observe(nsDuration(ns))
}

// ObserveMemoHit records one engine memo-cache hit, as reported by the
// engine's hit event. With ObserveCompute counting the misses, the pair
// yields the fleet-wide memo hit ratio — and, unlike per-engine
// counters, survives engine eviction.
func (c *Collector) ObserveMemoHit() {
	c.memoHits.Add(1)
}

// Requests reports completed requests observed.
func (c *Collector) Requests() int64 { return c.requests.Load() }

// NotModified reports 304 responses observed.
func (c *Collector) NotModified() int64 { return c.notModified.Load() }

// ClientErrors reports 4xx responses observed.
func (c *Collector) ClientErrors() int64 { return c.clientErrs.Load() }

// ServerErrors reports 5xx responses observed.
func (c *Collector) ServerErrors() int64 { return c.serverErrs.Load() }

// MemoHits reports engine memo-cache hits observed.
func (c *Collector) MemoHits() int64 { return c.memoHits.Load() }

// StageSummary is one stage's aggregate for the JSON stats snapshot.
type StageSummary struct {
	Stage  string `json:"stage"`
	Count  uint64 `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MeanNs int64  `json:"mean_ns"`
}

// AnalysisSummary is one analysis's latency aggregate for /v1/stats.
type AnalysisSummary struct {
	Analysis string `json:"analysis"`
	Count    uint64 `json:"count"`
	SumNs    int64  `json:"sum_ns"`
	P50Ns    int64  `json:"p50_ns"`
	P95Ns    int64  `json:"p95_ns"`
	P99Ns    int64  `json:"p99_ns"`
	MeanNs   int64  `json:"mean_ns"`
}

// Summary is the Collector's JSON form, embedded in /v1/stats.
type Summary struct {
	Stages   []StageSummary    `json:"stages,omitempty"`
	Analyses []AnalysisSummary `json:"analyses,omitempty"`
}

func summarize(s HistogramSnapshot) (p50, p95, p99, mean int64) {
	if s.Count == 0 {
		return 0, 0, 0, 0
	}
	return s.QuantileNs(0.50), s.QuantileNs(0.95), s.QuantileNs(0.99),
		s.SumNs / int64(s.Count)
}

// Summarize returns the bucketed percentile summaries for every stage
// (in canonical order) and analysis (sorted by name) with at least one
// observation.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	stages := make(map[string]*Histogram, len(c.stages))
	for k, v := range c.stages {
		stages[k] = v
	}
	analyses := make(map[string]*Histogram, len(c.byAnalysis))
	for k, v := range c.byAnalysis {
		analyses[k] = v
	}
	c.mu.Unlock()

	var out Summary
	for _, stage := range Stages {
		h := stages[stage]
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		p50, p95, p99, mean := summarize(snap)
		out.Stages = append(out.Stages, StageSummary{
			Stage: stage, Count: snap.Count, SumNs: snap.SumNs,
			P50Ns: p50, P95Ns: p95, P99Ns: p99, MeanNs: mean,
		})
	}
	names := make([]string, 0, len(analyses))
	for name := range analyses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := analyses[name].Snapshot()
		if snap.Count == 0 {
			continue
		}
		p50, p95, p99, mean := summarize(snap)
		out.Analyses = append(out.Analyses, AnalysisSummary{
			Analysis: name, Count: snap.Count, SumNs: snap.SumNs,
			P50Ns: p50, P95Ns: p95, P99Ns: p99, MeanNs: mean,
		})
	}
	return out
}
