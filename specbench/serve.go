package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// server is one specserve-equivalent instance on a loopback listener:
// the corpus directory as base, the default trace ring, an audit log
// and the one-line request log, as `specserve -in <dir> -audit <file>`
// configures it. The request log is formatted as specserve's default
// text format does and then discarded, so its cost is measured without
// terminal I/O.
type server struct {
	srv       *serve.Server
	hs        *http.Server
	audit     *obs.AuditLog
	auditPath string
	url       string
	served    chan error
	clients   []*http.Client
}

func startServer(dir, auditPath string, live bool, clients int) (*server, error) {
	audit, err := obs.OpenAuditLog(auditPath, obs.AuditOptions{})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Base: core.DirSource{Dir: dir}, Audit: audit, Live: live,
		Logf: log.New(discard{}, "", log.LstdFlags).Printf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		audit.Close()
		return nil, err
	}
	s := &server{
		srv: srv, hs: &http.Server{Handler: srv}, audit: audit, auditPath: auditPath,
		url: "http://" + ln.Addr().String(), served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for range clients {
		// One keep-alive connection per client.
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return s, nil
}

// discard drops what it is given. It is not io.Discard, for which a
// log.Logger skips formatting altogether.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	etag   string
	body   []byte
	dur    time.Duration
}

func (s *server) do(client int, method, path, ifNoneMatch string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	start := time.Now()
	resp, err := s.clients[client].Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: b, dur: d}, nil
}

// stop shuts the listener down, waits for the serve loop, closes the
// audit log and checks its chain: it must verify and hold exactly the
// records the server chained.
func (s *server) stop(l *ledger) error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shut server down: %w", err)
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	// Close drains the batching writer, so the count is final after it.
	if err := s.audit.Close(); err != nil {
		return fmt.Errorf("close audit log: %w", err)
	}
	chained := s.audit.Records()
	f, err := os.Open(s.auditPath)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := obs.VerifyChain(f)
	switch {
	case err != nil:
		l.violate("audit chain: " + err.Error())
	case int64(res.Records) != chained:
		l.violate(fmt.Sprintf("audit log holds %d records, server chained %d", res.Records, chained))
	default:
		l.ok()
	}
	return nil
}

// checkedClient issues a serve run's GETs and applies its oracles.
type checkedClient struct {
	rc    *runCtx
	s     *server
	etags *etagBodies
	ids   *identities
	last  *lastETags // last ETag seen per request path, for revalidation
}

func newCheckedClient(rc *runCtx, s *server) *checkedClient {
	return &checkedClient{rc: rc, s: s, etags: newEtagBodies(), ids: newIdentities(), last: newLastETags()}
}

// genRange reports the corpus generations a reply may have been served
// at, lo ≤ hi; it is called once the reply is in.
type genRange func() (lo, hi uint64)

// static is the genRange of a server whose corpus never moves.
func static() (lo, hi uint64) { return 0, 0 }

// bodyCheck validates a 200 body served at a generation in [lo, hi].
type bodyCheck func(body []byte, lo, hi uint64) error

// get issues one GET from client c, revalidating with the last ETag
// seen for k when asked, and applies the serve oracles: a 200 must
// carry an ETag that labels no other body in the run and, when its
// generation is known (gens gives one), an identity that served no
// other bytes; a 304 must answer a matching If-None-Match. Error
// statuses are failed ops. check, when non-nil, validates a 200 body
// further. When count is false (priming) only violations are recorded.
func (h *checkedClient) get(c int, k key, gens genRange, revalidate bool, check bodyCheck, count bool) (reply, bool) {
	l := h.rc.ledger
	inm := ""
	if revalidate {
		inm = h.last.get(k.path())
	}
	rep, err := h.s.do(c, http.MethodGet, k.path(), inm, nil)
	lo, hi := gens()
	switch {
	case err != nil:
		if count {
			l.fail("transport: " + err.Error())
		}
		return rep, false
	case rep.status == http.StatusNotModified:
		if !solicited304(inm, rep.etag) {
			l.violate("304 without a matching If-None-Match: " + k.path())
			return rep, false
		}
	case rep.status == http.StatusOK:
		d := digest(rep.body)
		if rep.etag == "" || !h.etags.check(rep.etag, d) {
			l.violate("one ETag, two bodies: " + k.path())
			return rep, false
		}
		if lo == hi && !h.ids.record(identityOf(lo, k), d) {
			l.violate("one identity, two bodies: " + identityOf(lo, k))
			return rep, false
		}
		if check != nil {
			if err := check(rep.body, lo, hi); err != nil {
				l.violate(k.path() + ": " + err.Error())
				return rep, false
			}
		}
		h.last.set(k.path(), rep.etag)
	default:
		if count {
			l.fail(fmt.Sprintf("%d %s: %s", rep.status, k.path(), shortErr(rep.body)))
		}
		return rep, false
	}
	if count {
		l.ok()
	}
	return rep, true
}

// stop stops the server and saves the run's identity map.
func (h *checkedClient) stop() error {
	err := h.s.stop(h.rc.ledger)
	h.rc.identityNote(h.ids)
	return err
}

// funnelCheck validates a funnel body served at a generation in
// [lo, hi]: it must equal want[g] for one such g. A static scope's want
// has one entry.
func funnelCheck(want []funnelCounts) bodyCheck {
	return func(body []byte, lo, hi uint64) error {
		got, err := decodeFunnel(body)
		if err != nil {
			return err
		}
		n := uint64(len(want))
		for _, w := range want[min(lo, n):min(hi+1, n)] {
			if got == w {
				return nil
			}
		}
		return fmt.Errorf("funnel %+v, want one of %+v", got, want[min(lo, n):min(hi+1, n)])
	}
}

// serveRead is the cached-read workload: two keep-alive clients in a
// closed loop over a Zipf mix of a working set that the set-up primes,
// so after set-up no ingest or compute happens.
type serveRead struct {
	*checkedClient
	dir    string
	keys   []key
	checks []bodyCheck // per key; funnel keys only
	timed  []bool      // per key; false for a known defect
	mixes  []*readMix
	// defects lists the keys left out of the timed mix, with the error
	// each was answered with.
	defects []string
}

const serveClients = 2

func setupServeRead(rc *runCtx) (workload, error) {
	c, err := genCorpus(rc.seed)
	if err != nil {
		return nil, err
	}
	w := &serveRead{dir: rc.freshPath("corpus"), keys: readKeys()}
	if err := rc.writeFiles(w.dir, c.runs, c.texts); err != nil {
		return nil, err
	}
	w.checks = make([]bodyCheck, len(w.keys))
	for i, k := range w.keys {
		if k.Name == "funnel" {
			f, err := scopeFunnel(c.runs, k.Filter)
			if err != nil {
				return nil, err
			}
			w.checks[i] = funnelCheck([]funnelCounts{f})
		}
	}
	s, err := startServer(w.dir, rc.freshPath("audit.log"), false, serveClients)
	if err != nil {
		return nil, err
	}
	w.checkedClient = newCheckedClient(rc, s)
	// Prime the whole working set, split across the clients. A key the
	// program answers with a known defect stays out of the timed mix.
	replies := make([]reply, len(w.keys))
	var wg sync.WaitGroup
	for cl := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cl; i < len(w.keys); i += serveClients {
				replies[i], _ = w.get(cl, w.keys[i], static, false, w.checks[i], false)
			}
		}()
	}
	wg.Wait()
	w.timed = make([]bool, len(w.keys))
	for i, rep := range replies {
		w.timed[i] = !knownDefect(rep.status, rep.body)
		if !w.timed[i] {
			w.defects = append(w.defects, fmt.Sprintf("500 %s: %s", w.keys[i].path(), shortErr(rep.body)))
		}
	}
	if len(w.defects) == len(w.keys) {
		return nil, errors.New("every working-set key fails")
	}
	for i := range serveClients {
		w.mixes = append(w.mixes, newReadMix(w.timed, rc.seed, i))
	}
	return w, nil
}

func (w *serveRead) clients() int { return serveClients }

func (w *serveRead) op(c int, tr *tracer, op int64) (time.Duration, bool) {
	i, reval := w.mixes[c].next()
	id := tr.begin(spanRequest, -1, op)
	rep, ok := w.get(c, w.keys[i], static, reval, w.checks[i], true)
	tr.end(id)
	return rep.dur, ok
}

// spanRequest is the client-side span of one HTTP request.
const spanRequest = "http.Client.Do"

func (w *serveRead) finish() error { return w.stop() }

func (w *serveRead) summary() []string {
	out := []string{fmt.Sprintf("known defects: %d of %d working-set keys answer 500 at this seed; left out of the timed mix:",
		len(w.defects), len(w.keys))}
	for _, d := range w.defects {
		out = append(out, "  "+d)
	}
	return out
}

// serveLive is the append workload: the same server with live
// ingestion on, booted from a prefix of the corpus; the two clients mix
// POST /v1/runs, every appendEvery-th op, with reads of analyses an
// append invalidates, so reads recompute after every append. Reads and
// appends go to the server concurrently: a read that waits behind an
// append waits inside the server. Appends are posted one at a time, so
// generation g holds the base plus the first g runs of the pool.
type serveLive struct {
	*checkedClient
	dir   string
	feed  *liveFeed
	mixes []*liveMix
	gens  generations

	appendMu sync.Mutex // held while an append is posted
	next     int        // pool index of the next append
	// applied is the generation of the latest append whose reply is
	// in: every resident engine has folded it and all before it.
	applied  atomic.Uint64
	latMu    sync.Mutex
	appendMs []float64
	readMs   [][]float64 // per liveKeys index, successful reads
}

func setupServeLive(rc *runCtx) (workload, error) {
	c, err := genCorpus(rc.seed)
	if err != nil {
		return nil, err
	}
	feed, err := newLiveFeed(c, rc.seed)
	if err != nil {
		return nil, err
	}
	w := &serveLive{dir: rc.freshPath("corpus"), feed: feed, readMs: make([][]float64, len(liveKeys))}
	if err := rc.writeFiles(w.dir, feed.base, feed.baseTexts); err != nil {
		return nil, err
	}
	s, err := startServer(w.dir, rc.freshPath("audit.log"), true, serveClients)
	if err != nil {
		return nil, err
	}
	w.checkedClient = newCheckedClient(rc, s)
	for i := range serveClients {
		w.mixes = append(w.mixes, newLiveMix(rc.seed, i))
	}
	for _, lk := range liveKeys {
		w.read(0, lk, false, false)
	}
	return w, nil
}

func (w *serveLive) clients() int { return serveClients }

// read issues one GET. The reply was served at a generation between
// the last append completed before it was sent and the server's
// generation once it is in; the identity oracle applies when those are
// equal, and a funnel body must match the base plus the appends of one
// generation in that range.
func (w *serveLive) read(c int, k key, revalidate, count bool) (reply, bool) {
	var check bodyCheck
	if k.Name == "funnel" {
		check = funnelCheck(w.feed.funnelAt)
	}
	lo := w.applied.Load()
	gens := func() (uint64, uint64) { return lo, w.s.srv.Generation() }
	return w.get(c, k, gens, revalidate, check, count)
}

// appendNext POSTs the next pool run; generations must strictly
// increase, one per append.
func (w *serveLive) appendNext(c int) (reply, bool) {
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	if w.next >= len(w.feed.pool) {
		w.rc.ledger.fail("append pool exhausted")
		return reply{}, false
	}
	rep, err := w.s.do(c, http.MethodPost, "/v1/runs", "", []byte(w.feed.poolTexts[w.next]))
	if err != nil {
		w.rc.ledger.fail("transport: " + err.Error())
		return rep, false
	}
	if rep.status != http.StatusOK {
		w.rc.ledger.fail(fmt.Sprintf("%d POST /v1/runs: %s", rep.status, shortErr(rep.body)))
		return rep, false
	}
	var ar struct {
		ID         string `json:"id"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rep.body, &ar); err != nil || ar.ID != w.feed.pool[w.next].ID {
		w.rc.ledger.violate("append reply does not echo the posted run: " + shortErr(rep.body))
		return rep, false
	}
	if !w.gens.check(ar.Generation) || ar.Generation != uint64(w.next+1) {
		w.rc.ledger.violate(fmt.Sprintf("append %d moved the generation to %d", w.next+1, ar.Generation))
		return rep, false
	}
	w.next++
	w.applied.Store(ar.Generation)
	w.rc.ledger.ok()
	w.latMu.Lock()
	w.appendMs = append(w.appendMs, ms(rep.dur))
	w.latMu.Unlock()
	return rep, true
}

func (w *serveLive) op(c int, tr *tracer, op int64) (time.Duration, bool) {
	id := tr.begin(spanRequest, -1, op)
	defer tr.end(id)
	if op%appendEvery == 0 {
		rep, ok := w.appendNext(c)
		return rep.dur, ok
	}
	i, reval := w.mixes[c].draw()
	rep, ok := w.read(c, liveKeys[i], reval, true)
	if ok {
		w.latMu.Lock()
		w.readMs[i] = append(w.readMs[i], ms(rep.dur))
		w.latMu.Unlock()
	}
	return rep.dur, ok
}

func (w *serveLive) finish() error { return w.stop() }

func (w *serveLive) summary() []string {
	w.latMu.Lock()
	defer w.latMu.Unlock()
	out := []string{fmt.Sprintf("append_p50_ms %.4f over %d appends (generation %d)",
		percentile(w.appendMs, 50), len(w.appendMs), w.applied.Load())}
	for i, lk := range liveKeys {
		out = append(out, fmt.Sprintf("read p50/p90 ms %.4f/%.4f over %5d: %s",
			percentile(w.readMs[i], 50), percentile(w.readMs[i], 90), len(w.readMs[i]), lk.path()))
	}
	return out
}
