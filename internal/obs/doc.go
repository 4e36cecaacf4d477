// Package obs is the observability and provenance layer behind
// specserve: per-stage request timing aggregated into histograms and
// exposed in Prometheus text format, plus a hash-chained audit log that
// attributes every served result to the corpus state and parameters
// that produced it.
//
// # Timing
//
// A request's life is split into flat stages — queue wait at the
// concurrency gate, engine build, corpus ingestion, analysis compute,
// response serialization — each recorded as nanoseconds in a
// RequestMetrics and aggregated by a Collector into fixed-bucket
// histograms (per stage, and per analysis for end-to-end latency).
// The Collector serves two consumers: an enriched JSON snapshot for
// /v1/stats (bucketed p50/p95 estimates per analysis) and a
// Prometheus-text /metrics exposition (WritePrometheus), so existing
// scrape tooling works without a client library dependency.
//
// # Audit
//
// An AuditLog appends one Record per attributable 200 response:
// timestamp, corpus fingerprint, analysis name, canonical parameters,
// and a digest of the served bytes, chained through core.Digest — each
// record's hash covers the previous record's hash, so truncating,
// reordering, or mutating any byte of any record breaks the chain from
// that point on. VerifyChain detects the first broken record and
// reports its index; VerifyConsistency finds two records that served
// different bytes under one (fingerprint, analysis, params, filter)
// identity. Appends go through a batching writer (bounded
// channel, background goroutine, flush on batch size, interval, or
// Close) so the serving hot path never blocks on file I/O, and Close
// drains every queued record before returning — a graceful shutdown
// loses nothing.
//
// Each record also carries the trace id of the request that served the
// bytes (empty when tracing is off). The id is folded into the record
// hash only when present, so logs written before tracing existed — or
// with tracing disabled — verify byte-for-byte under the current
// verifier, and anchors captured from them stay valid.
//
// # Event log
//
// The obs/evlog subpackage is the structured event stream the serving
// layer logs through: leveled, logfmt- or JSON-encoded events with
// ordered key/value attributes and a trace_id field correlating each
// event with /v1/traces. A nil *evlog.Logger is a no-op, so state
// holders instrument unconditionally and the caller decides at wiring
// time whether events flow. The AuditLog emits audit_flush events
// (reason, record count, queue depth) through AuditOptions.Events, and
// its FlushStats/QueueDepth accessors feed the
// specserve_audit_queue_* exposition families.
//
// # Tracing
//
// The histograms above answer "how slow are requests like this"; the
// obs/trace subpackage answers "where did this request spend its
// time". Each request gets a Trace — a tree of timed Spans with
// ordered attributes, carrying W3C trace-context identity — built by
// the serving layer as the request crosses the same stages the
// Collector aggregates, plus kernel-level child spans (one per k-means
// iteration or HAC merge batch) fed by count-only kernel events so the
// analyses themselves stay clock-free. Completed traces are
// published to a bounded lock-free Ring and served by /v1/traces.
//
// RuntimeSampler rounds out the picture: sampled at /metrics scrape
// time, it renders goroutine count, heap gauges, GC cycle count, and a
// cumulative GC pause histogram (WriteRuntimePrometheus) so a latency
// spike in the stage histograms can be checked against GC pressure
// without attaching a profiler.
package obs
