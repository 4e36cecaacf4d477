// Package serve exposes the analysis registry as a long-running HTTP
// service — the network-facing surface over the streaming core.Engine.
//
// # Endpoints
//
//	GET /healthz                   liveness probe
//	GET /metrics                   Prometheus text exposition (counters + latency histograms)
//	GET /v1/analyses               the registry listing: {name, description, params}
//	GET /v1/analyses/{name}        one analysis result as {name, description, filter, params, value}
//	GET /v1/report                 the full text report
//	GET /v1/stats                  serving metrics (JSON; stage and per-analysis latency breakdowns)
//	GET /v1/pool                   engine-pool introspection (resident scopes, cache counters)
//	GET /v1/traces                 recent request traces (?n= count, ?min_ms= slow filter)
//	GET /debug/pprof/              runtime profiles (Config.Pprof, loopback clients only)
//
// The analysis and report endpoints accept ?filter=EXPR, a
// core.ParseFilter corpus-slice expression ("vendor=AMD,since=2021"),
// selecting the scope the analysis runs over.
//
// # Typed parameters
//
// Every other query key is a typed parameter of the requested analysis,
// validated against the schema its registration declares
// (analysis.Registration.Params) — /v1/analyses/clusters?k=5&seed=3
// asks the clustering subsystem for a five-way partition under seed 3.
// An unknown key, an unparsable or out-of-range value, or a combination
// the analysis rejects (algo=hac without k or cut) is answered 400 with
// the declared schema echoed in the body, before any engine is built or
// corpus ingested. Resolved parameters canonicalize to their sorted
// non-default assignments; the canonical string keys the engine's memo
// (k=3 and k=5 are independent cached scenarios on one scope engine)
// and joins the ETag (each parameterization revalidates independently,
// and spelling a default out shares the default's validator).
//
// # The scope-keyed engine pool
//
// Every distinct scope maps to one lazily built core.Engine wrapped in
// FilterSource over the server's base source. Scopes are canonicalized
// (lower-cased, clause-sorted) before keying, so "since=2021,vendor=AMD"
// and "vendor=amd, since=2021" share an engine. Construction is
// single-flight: the pool entry is inserted under the pool lock but
// built inside the entry's sync.Once, so N concurrent requests for the
// same cold scope perform exactly one build — and because the engine
// memoizes its dataset and analyses behind sync.Once too, they share
// one corpus ingestion and one computation per analysis instead of
// stampeding the parser. The pool is LRU-bounded: beyond PoolSize
// resident engines the least recently served scope is evicted (a
// request already holding the evicted engine finishes unharmed; the
// next request for that scope rebuilds). Failures are never pinned:
// a scope whose fingerprint or ingestion errors is dropped from the
// pool, so a transient corpus problem is retried by the next request
// instead of replaying a memoized error forever.
//
// # ETags
//
// Responses carry strong ETags derived from (corpus fingerprint,
// endpoint, analysis name, canonical filter, canonical params). The fingerprint comes
// from core.SourceFingerprint — for directory corpora a digest of every
// file's path, size, and mtime; for synthetic corpora the generator
// options — so the validator changes exactly when the served bytes
// could. A repeat request carrying If-None-Match is answered 304 Not
// Modified with zero recomputation and an empty body. Responses are
// marked Cache-Control: no-cache, which tells well-behaved clients to
// revalidate (cheap: a 304) rather than serve possibly-stale copies
// blindly.
//
// # Observability
//
// Every request carries an obs.RequestMetrics through its context: the
// gate records queue wait, the analysis handler records serialization,
// and the outermost middleware folds the finished request into the
// server's obs.Collector (and emits the Config.Logf line). Engine-side events — corpus ingestion, memo-miss
// computations, memo hits — are timed by the engines themselves and
// reach the same collector through the pool's engine-wide core.Sink,
// once per actual event rather than once per request, so single-flight
// sharing cannot inflate them. The aggregates surface twice from one
// source: /v1/stats as JSON (stage and per-analysis percentile
// summaries) and /metrics as Prometheus text exposition (cumulative
// histograms and counters, plus a specserve_runtime_* section sampled
// at scrape time).
//
// # Event log and pool introspection
//
// Config.Events (an obs/evlog.Logger) adds a structured event stream
// alongside — or instead of — the Config.Logf line, which keeps its
// historical one-line format byte-for-byte. Every request emits one
// "request" event carrying method, path, status, status_class,
// etag_revalidated, bytes, duration, and trace_id; the state plane
// emits its own lifecycle: pool_build (with the single-flight join
// count — how many requests waited on that one build), pool_evict with
// a reason (lru, build_failed, ingestion_failed, append_failed, or the
// reason a live pool reset gave), and audit_flush.
// The same instrumentation feeds counter families in /metrics
// (specserve_pool_*, specserve_memo_*, specserve_parse_cache_*,
// specserve_audit_queue_*) and GET /v1/pool, a deterministic snapshot
// of the resident scope engines: canonical filter, corpus fingerprint,
// age in requests, hit counts, memo occupancy, and approximate bytes,
// sorted by filter and byte-identical across reads on a quiesced
// server — the snapshot never touches the LRU order or any counter it
// reports. cmd/spectop renders all three surfaces as a live dashboard.
//
// # Tracing
//
// Histograms aggregate; traces explain. Unless Config.TraceBufferSize
// is negative, each request also carries an obs/trace tracer: the
// middleware opens a root span (adopting an inbound W3C Traceparent
// header and echoing the outbound one), the gate and handlers hang
// stage child spans off it, and engine-side events arrive through the
// request's own core.Sink (core.Request.Sink). The engine fires the
// same core.Event values it hands the pool's sink, but to a request
// sink only those its request paid for — the ingestion it streamed,
// the computation it missed the memo on — so warm traces have no
// compute span. Kernel-depth spans (per k-means iteration, per HAC
// merge batch) come from count-only kernel events that the engine
// stamps on receipt, keeping registered analyses clock-free under
// specvet's determinism gate. Completed traces are published to
// a bounded lock-free ring served by /v1/traces, Config.SlowTrace logs
// one line per slower-than-threshold request with its trace id, and
// the id also rides the audit record for the same response.
//
// # Audit
//
// With Config.Audit set, every attributable 200 — an analysis or report
// response, whose bytes derive from a corpus state — appends one record
// to an obs.AuditLog: timestamp, scope fingerprint, analysis name,
// canonical params, and a digest of the exact served bytes, each record
// hash-chained to its predecessor. Listings, health, stats, errors, and
// 304s are never audited. The append is a channel send; a batching
// writer goroutine does the file I/O off the request path. The caller
// owns the log's lifecycle and closes it after the server drains.
//
// # Operational behavior
//
// Requests pass a bounded-concurrency gate (Config.MaxInFlight; waiters
// respect request-context cancellation and get 503 when the client
// gives up). cmd/specserve wires the package to the shared corpus
// flags, the -audit flag, and graceful shutdown on SIGINT/SIGTERM;
// cmd/specaudit verifies the chains specserve writes.
package serve
