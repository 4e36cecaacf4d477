package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/serve"
)

// layerUnits lists every per-layer metric with its unit. The traced run
// reports each one, whichever workload it belongs to: the probes time a
// layer's public calls on the workload's seed corpus.
var layerUnits = map[string]string{
	"parse.us_per_file":             "us",
	"parse.mb_per_s":                "MB/s",
	"ingest.classify_us_per_run":    "us",
	"ingest.dir_dataset_ms":         "ms",
	"ingest.dir_self_ms":            "ms",
	"ingest.comparable_runs":        "count",
	"compute.trends_ms":             "ms",
	"compute.cluster-sweep_ms":      "ms",
	"compute.clusters_ms":           "ms",
	"compute.cluster-profiles_ms":   "ms",
	"compute.clusters_hac_ms":       "ms",
	"compute.clusters_minibatch_ms": "ms",
	"compute.other_ms":              "ms",
	"compute.total_ms":              "ms",
	"compute.total_nproc_ms":        "ms",
	"encode.fig3_us":                "us",
	"encode.clusters_us":            "us",
	"encode.total_ms":               "ms",
	"encode.kb_total":               "KiB",
	"study.self_glue_ms":            "ms",
	"study.self_ingest_ms":          "ms",
	"study.self_compute_ms":         "ms",
	"study.self_encode_ms":          "ms",
	"serve.warm_200_us":             "us",
	"serve.revalidate_304_us":       "us",
	"serve.cold_scope_ms":           "ms",
	"serve.transport_us":            "us",
	"serve.pool_hit_ratio":          "ratio",
	"serve.memo_hit_ratio":          "ratio",
	"serve.engine_builds":           "count",
	"serve.audit_records":           "count",
	"live.append_us":                "us",
	"live.memos_dropped":            "count",
	"live.memos_kept":               "count",
	"live.recompute_minibatch_ms":   "ms",
	"live.recompute_trends_ms":      "ms",
}

// heavyAnalyses are the analyses the compute layer reports one by one;
// the rest add up to compute.other_ms.
var heavyAnalyses = []string{"trends", "cluster-sweep", "clusters", "cluster-profiles"}

// Probe repeat counts per round.
const (
	coldServers   = 3
	warmRequests  = 50
	notModRepeats = 300
	mixRequests   = 300
	liveAppends   = 2
)

// layerOpBase offsets the op ids of probe spans from workload ops.
const layerOpBase = 1 << 40

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerRounds runs probe rounds until the next one would overrun
// deadline (at least one) and reports each metric's median over rounds.
func layerRounds(rc *runCtx, tr *tracer, deadline time.Time) (map[string]metric, error) {
	c, err := genCorpus(rc.seed)
	if err != nil {
		return nil, err
	}
	feed, err := newLiveFeed(c, rc.seed)
	if err != nil {
		return nil, err
	}
	dir, liveDir := rc.freshPath("layers"), rc.freshPath("layers-live")
	if err := rc.writeFiles(dir, c.runs, c.texts); err != nil {
		return nil, err
	}
	if err := rc.writeFiles(liveDir, feed.base, feed.baseTexts); err != nil {
		return nil, err
	}
	var appendRuns []*model.Run // comparable, so every append reaches trends
	for _, r := range feed.pool {
		if model.Classify(r) == model.RejectNone && len(appendRuns) < liveAppends {
			appendRuns = append(appendRuns, r)
		}
	}
	p := &prober{rc: rc, tr: tr, c: c, feed: feed, dir: dir, liveDir: liveDir, appendRuns: appendRuns}
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	samples := map[string][]float64{}
	var last time.Duration
	for round := int64(0); round == 0 || time.Now().Add(last).Before(deadline); round++ {
		start := time.Now()
		p.op = layerOpBase + round
		p.m = map[string]float64{}
		if err := p.round(); err != nil {
			return nil, err
		}
		for _, n := range names {
			v, ok := p.m[n]
			if !ok {
				return nil, fmt.Errorf("layer metric %s was not measured", n)
			}
			samples[n] = append(samples[n], v)
		}
		last = time.Since(start)
	}
	rc.notes = append(rc.notes, fmt.Sprintf("%d probe round(s), the last took %v", len(samples["compute.total_ms"]), last.Round(time.Millisecond)))
	out := map[string]metric{}
	for _, n := range names {
		out[n] = metric{median(samples[n]), layerUnits[n]}
	}
	return out, nil
}

// prober holds one traced run's probe inputs and the round's results.
type prober struct {
	rc         *runCtx
	tr         *tracer
	c          *corpus
	feed       *liveFeed
	dir        string
	liveDir    string
	appendRuns []*model.Run
	op         int64
	m          map[string]float64
}

// timed runs fn in a span and returns the span's duration.
func (p *prober) timed(name string, fn func() error) (time.Duration, error) {
	id := p.tr.begin(name, -1, p.op)
	err := fn()
	return p.tr.end(id), err
}

// expect records a probe's check as one op in the ledger.
func (p *prober) expect(ok bool, what string) {
	if ok {
		p.rc.ledger.ok()
	} else {
		p.rc.ledger.violate(what)
	}
}

func (p *prober) round() error {
	runs, parseTotal, err := p.parse()
	if err != nil {
		return err
	}
	if err := p.ingest(runs, parseTotal); err != nil {
		return err
	}
	eng, err := p.compute()
	if err != nil {
		return err
	}
	if err := p.encode(eng); err != nil {
		return err
	}
	if err := p.studySelf(); err != nil {
		return err
	}
	if err := p.serve(); err != nil {
		return err
	}
	return p.live()
}

// parse times parser.ParseString over every corpus text.
func (p *prober) parse() ([]*model.Run, time.Duration, error) {
	runs := make([]*model.Run, len(p.c.texts))
	var total time.Duration
	var bytes int
	for i, txt := range p.c.texts {
		d, err := p.timed("parser.ParseString", func() error {
			var err error
			runs[i], err = parser.ParseString(txt)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", p.c.runs[i].ID, err)
		}
		total += d
		bytes += len(txt)
	}
	p.m["parse.us_per_file"] = us(total) / float64(len(runs))
	p.m["parse.mb_per_s"] = float64(bytes) / 1e6 / total.Seconds()
	return runs, total, nil
}

// ingest times classification alone and a one-worker directory
// ingestion, whose self time is what remains after the parse share.
func (p *prober) ingest(runs []*model.Run, parseTotal time.Duration) error {
	b := analysis.NewDatasetBuilder()
	d, _ := p.timed("analysis.DatasetBuilder.Add", func() error {
		for _, r := range runs {
			b.Add(r)
		}
		return nil
	})
	p.m["ingest.classify_us_per_run"] = us(d) / float64(len(runs))
	f := b.Funnel()
	p.expect(funnelCounts{f.Raw, f.Parsed, f.Comparable} == p.c.funnel, "builder funnel differs from the corpus")

	eng := core.New(core.WithSource(core.DirSource{Dir: p.dir}), core.WithWorkers(1))
	var ds *analysis.Dataset
	d, err := p.timed("core.Engine.Dataset", func() error {
		var err error
		ds, err = eng.Dataset()
		return err
	})
	if err != nil {
		return err
	}
	p.m["ingest.dir_dataset_ms"] = ms(d)
	p.m["ingest.dir_self_ms"] = ms(d - parseTotal)
	p.m["ingest.comparable_runs"] = float64(len(ds.Comparable))
	p.expect(len(ds.Comparable) == p.c.funnel.Comparable, "directory ingest comparable count differs from the corpus")
	return nil
}

// requestOf resolves a mix key's parameters into an engine request.
func requestOf(k key) (core.Request, error) {
	req := core.Request{Name: k.Name}
	if len(k.Params) == 0 {
		return req, nil
	}
	reg, ok := analysis.Lookup(k.Name)
	if !ok {
		return req, fmt.Errorf("unknown analysis %s", k.Name)
	}
	raw := map[string]string{}
	for n := range k.Params {
		raw[n] = k.Params.Get(n)
	}
	var err error
	req.Params, err = reg.Params.Resolve(raw)
	return req, err
}

var (
	hacKey       = key{Name: "clusters", Params: url.Values{"algo": {"hac"}, "k": {"4"}}}
	minibatchKey = key{Name: "clusters", Params: url.Values{"algo": {"minibatch"}, "k": {"3"}}}
)

// compute times every registered analysis with default parameters at
// one worker on an ingested engine, so each number is the analysis's
// own time, then the hac and minibatch variants, then the whole set at
// nproc workers on a second engine.
func (p *prober) compute() (*core.Engine, error) {
	eng := core.New(core.WithSource(core.SliceSource(p.c.runs)), core.WithWorkers(1))
	if _, err := eng.Dataset(); err != nil {
		return nil, err
	}
	heavy := map[string]bool{}
	for _, n := range heavyAnalyses {
		heavy[n] = true
	}
	var total, other time.Duration
	for _, name := range analysis.Names() {
		d, err := p.timed("core.Engine.AnalysisRequest "+name, func() error {
			_, err := eng.AnalysisRequest(core.Request{Name: name})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("compute %s: %w", name, err)
		}
		total += d
		if heavy[name] {
			p.m["compute."+name+"_ms"] = ms(d)
		} else {
			other += d
		}
	}
	p.m["compute.other_ms"] = ms(other)
	p.m["compute.total_ms"] = ms(total)
	for _, v := range []struct {
		metric string
		k      key
	}{{"compute.clusters_hac_ms", hacKey}, {"compute.clusters_minibatch_ms", minibatchKey}} {
		metricName, k := v.metric, v.k
		req, err := requestOf(k)
		if err != nil {
			return nil, err
		}
		d, err := p.timed("core.Engine.AnalysisRequest "+k.path(), func() error {
			_, err := eng.AnalysisRequest(req)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("compute %s: %w", k.path(), err)
		}
		p.m[metricName] = ms(d)
	}

	engN := core.New(core.WithSource(core.SliceSource(p.c.runs)), core.WithWorkers(runtime.GOMAXPROCS(0)))
	if _, err := engN.Dataset(); err != nil {
		return nil, err
	}
	d, err := p.timed("core.Engine.RunRequests", func() error {
		_, err := engN.RunRequests()
		return err
	})
	if err != nil {
		return nil, err
	}
	p.m["compute.total_nproc_ms"] = ms(d)
	return eng, nil
}

// byteCounter counts what is written to it.
type byteCounter int

func (c *byteCounter) Write(b []byte) (int, error) {
	*c += byteCounter(len(b))
	return len(b), nil
}

// encode times WriteJSONRequests on memoized values.
func (p *prober) encode(eng *core.Engine) error {
	for _, v := range [][2]string{{"encode.fig3_us", "fig3"}, {"encode.clusters_us", "clusters"}} {
		metricName, name := v[0], v[1]
		var n byteCounter
		d, err := p.timed("core.Engine.WriteJSONRequests "+name, func() error {
			return eng.WriteJSONRequests(&n, core.Request{Name: name})
		})
		if err != nil {
			return err
		}
		p.m[metricName] = us(d)
	}
	var n byteCounter
	d, err := p.timed("core.Engine.WriteJSONRequests", func() error {
		return eng.WriteJSONRequests(&n)
	})
	if err != nil {
		return err
	}
	p.m["encode.total_ms"] = ms(d)
	p.m["encode.kb_total"] = float64(n) / 1024
	return nil
}

// studySelf runs one study op layer by layer and reports each layer's
// self time within it; the op's own self time is engine construction
// and glue.
func (p *prober) studySelf() error {
	s := &study{rc: p.rc, dir: p.dir}
	root := p.tr.begin(spanStudyOp, -1, p.op)
	body, err := s.report(p.tr, root, p.op)
	p.tr.end(root)
	if err != nil {
		return err
	}
	f, err := studyFunnel(body)
	p.expect(err == nil && f == p.c.funnel, "traced study report funnel differs from the corpus")
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	p.m["study.self_glue_ms"] = ms(self[root])
	names := map[string]string{spanIngest: "study.self_ingest_ms", spanCompute: "study.self_compute_ms", spanEncode: "study.self_encode_ms"}
	for _, sp := range spans[root+1:] {
		if n, ok := names[sp.Name]; ok && sp.Parent == root {
			p.m[n] = ms(self[sp.ID])
		}
	}
	return nil
}

// inproc serves one request through Server.ServeHTTP in-process.
func inproc(h http.Handler, path, ifNoneMatch string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// serve probes the serving layer: cold scopes on fresh servers, warm
// 200s and 304s, and the serve-read mix in-process and over loopback,
// whose p50 difference is the transport's share.
func (p *prober) serve() error {
	fig3 := key{Name: "fig3"}.path()
	var cold []float64
	for range coldServers {
		s, err := startServer(p.dir, p.rc.freshPath("audit.log"), false, 0)
		if err != nil {
			return err
		}
		id := p.tr.begin("serve.Server.ServeHTTP cold "+fig3, -1, p.op)
		rec := inproc(s.srv, fig3, "")
		cold = append(cold, ms(p.tr.end(id)))
		p.expect(rec.Code == http.StatusOK, "cold fig3 not 200")
		if err := s.stop(p.rc.ledger); err != nil {
			return err
		}
	}
	p.m["serve.cold_scope_ms"] = median(cold)

	s, err := startServer(p.dir, p.rc.freshPath("audit.log"), false, 1)
	if err != nil {
		return err
	}
	keys := readKeys()
	last := newLastETags()
	timed := make([]bool, len(keys))
	for i, k := range keys {
		rec := inproc(s.srv, k.path(), "")
		if rec.Code == http.StatusOK {
			last.set(k.path(), rec.Header().Get("ETag"))
		}
		timed[i] = !knownDefect(rec.Code, rec.Body.Bytes())
	}
	var warm, notMod []float64
	for range warmRequests {
		id := p.tr.begin("serve.Server.ServeHTTP warm "+fig3, -1, p.op)
		rec := inproc(s.srv, fig3, "")
		warm = append(warm, us(p.tr.end(id)))
		p.expect(rec.Code == http.StatusOK, "warm fig3 not 200")
	}
	etag := last.get(fig3)
	for range notModRepeats {
		id := p.tr.begin("serve.Server.ServeHTTP 304 "+fig3, -1, p.op)
		rec := inproc(s.srv, fig3, etag)
		notMod = append(notMod, us(p.tr.end(id)))
		p.expect(rec.Code == http.StatusNotModified, "revalidated fig3 not 304")
	}
	p.m["serve.warm_200_us"] = median(warm)
	p.m["serve.revalidate_304_us"] = median(notMod)

	// The same request sequence in-process, then over loopback.
	sequence := func(do func(path, inm string) time.Duration) float64 {
		mix := newReadMix(timed, p.rc.seed, 0)
		var lat []float64
		for range mixRequests {
			i, reval := mix.next()
			inm := ""
			if reval {
				inm = last.get(keys[i].path())
			}
			lat = append(lat, us(do(keys[i].path(), inm)))
		}
		return percentile(lat, 50)
	}
	inP50 := sequence(func(path, inm string) time.Duration {
		id := p.tr.begin("serve.Server.ServeHTTP mix", -1, p.op)
		inproc(s.srv, path, inm)
		return p.tr.end(id)
	})
	loopP50 := sequence(func(path, inm string) time.Duration {
		id := p.tr.begin("http.Client.Do mix", -1, p.op)
		if _, err := s.do(0, http.MethodGet, path, inm, nil); err != nil {
			p.rc.ledger.fail("transport: " + err.Error())
		}
		return p.tr.end(id)
	})
	p.m["serve.transport_us"] = loopP50 - inP50

	st := s.srv.Stats()
	p.m["serve.pool_hit_ratio"] = float64(st.PoolHits) / float64(max(st.PoolHits+st.PoolMisses+st.PoolJoins, 1))
	p.m["serve.engine_builds"] = float64(st.EngineBuilds)
	rec := inproc(s.srv, "/v1/pool", "")
	var pool serve.PoolSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &pool); err != nil {
		return fmt.Errorf("decode /v1/pool: %w", err)
	}
	var hits, misses int64
	for _, e := range pool.Engines {
		hits += e.MemoHits
		misses += e.MemoMisses
	}
	p.m["serve.memo_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	if err := s.stop(p.rc.ledger); err != nil {
		return err
	}
	// Read after stop: the audit log chains asynchronously until closed.
	p.m["serve.audit_records"] = float64(s.audit.Records())
	return nil
}

// live probes the append plane: Engine.Append on an engine holding the
// serve-live reads, the first reads after it, and Server.AppendRuns on
// a live server whose reads are re-primed between appends.
func (p *prober) live() error {
	reqs := make([]core.Request, len(liveKeys))
	for i, lk := range liveKeys {
		var err error
		if reqs[i], err = requestOf(lk); err != nil {
			return err
		}
	}
	mbReq, err := requestOf(minibatchKey)
	if err != nil {
		return err
	}
	trendsReq := core.Request{Name: "trends"}
	eng := core.New(core.WithSource(core.SliceSource(p.feed.base)), core.WithWorkers(runtime.GOMAXPROCS(0)))
	var dropped, kept, appendUs, mb, trends []float64
	for _, r := range p.appendRuns {
		// Hold the whole registry and the serve-live reads, as a served
		// engine would, so the append has memos to drop and to keep.
		if _, err := eng.RunRequests(); err != nil {
			return err
		}
		if _, err := eng.RunRequests(reqs...); err != nil {
			return err
		}
		var st core.AppendStats
		if _, err := p.timed("core.Engine.Append", func() error {
			var err error
			st, err = eng.Append([]*model.Run{r})
			return err
		}); err != nil {
			return err
		}
		dropped = append(dropped, float64(st.Invalidated))
		kept = append(kept, float64(st.Retained))
		for _, x := range []struct {
			req core.Request
			out *[]float64
		}{{mbReq, &mb}, {trendsReq, &trends}} {
			d, err := p.timed("core.Engine.AnalysisRequest after append "+x.req.Name, func() error {
				_, err := eng.AnalysisRequest(x.req)
				return err
			})
			if err != nil {
				return err
			}
			*x.out = append(*x.out, ms(d))
		}
	}
	p.m["live.memos_dropped"] = median(dropped)
	p.m["live.memos_kept"] = median(kept)
	p.m["live.recompute_minibatch_ms"] = median(mb)
	p.m["live.recompute_trends_ms"] = median(trends)

	s, err := startServer(p.liveDir, p.rc.freshPath("audit.log"), true, 0)
	if err != nil {
		return err
	}
	var gens generations
	for _, r := range p.appendRuns {
		for _, lk := range liveKeys {
			rec := inproc(s.srv, lk.path(), "")
			p.expect(rec.Code == http.StatusOK, "live read not 200: "+lk.path())
		}
		var gen uint64
		d, err := p.timed("serve.Server.AppendRuns", func() error {
			var err error
			gen, err = s.srv.AppendRuns(r)
			return err
		})
		if err != nil {
			return err
		}
		p.expect(gens.check(gen), "AppendRuns generation did not increase")
		appendUs = append(appendUs, us(d))
	}
	p.m["live.append_us"] = median(appendUs)
	return s.stop(p.rc.ledger)
}
