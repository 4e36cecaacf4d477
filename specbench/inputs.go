package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
)

// paperFunnel is the Section II funnel of the paper-calibrated seed.
var paperFunnel = funnelCounts{Raw: 1017, Parsed: 960, Comparable: 676}

// funnelCounts is the part of analysis.Funnel the oracles compare; the
// field names match its JSON form.
type funnelCounts struct {
	Raw, Parsed, Comparable int
}

// corpus is one seeded synthetic corpus: the runs, their rendered
// result files (same order) and the funnel derived from the runs in
// memory, independently of the ingest layer under test.
type corpus struct {
	runs   []*model.Run
	texts  []string
	funnel funnelCounts
}

// genCorpus generates and renders the corpus for seed. The seed-14
// corpus must reproduce the paper's funnel.
func genCorpus(seed int64) (*corpus, error) {
	opt := synth.DefaultOptions()
	opt.Seed = seed
	runs, err := synth.Generate(opt)
	if err != nil {
		return nil, fmt.Errorf("generate corpus seed %d: %w", seed, err)
	}
	c := &corpus{runs: runs, texts: make([]string, len(runs)), funnel: expectedFunnel(runs)}
	for i, r := range runs {
		c.texts[i] = report.RenderString(r)
	}
	if seed == synth.DefaultSeed && c.funnel != paperFunnel {
		return nil, fmt.Errorf("seed %d corpus funnel %+v, want %+v", seed, c.funnel, paperFunnel)
	}
	return c, nil
}

// expectedFunnel classifies runs with model.Classify directly.
func expectedFunnel(runs []*model.Run) funnelCounts {
	parseStage := map[model.RejectReason]bool{}
	for _, rr := range model.ParseReasons() {
		parseStage[rr] = true
	}
	f := funnelCounts{Raw: len(runs)}
	for _, r := range runs {
		rr := model.Classify(r)
		if !parseStage[rr] {
			f.Parsed++
		}
		if rr == model.RejectNone {
			f.Comparable++
		}
	}
	return f
}

// scopeFunnel is the expected funnel of one ?filter= scope.
func scopeFunnel(runs []*model.Run, filter string) (funnelCounts, error) {
	if filter == "" {
		return expectedFunnel(runs), nil
	}
	keep, err := core.ParseFilter(filter)
	if err != nil {
		return funnelCounts{}, err
	}
	var in []*model.Run
	for _, r := range runs {
		if keep(r) {
			in = append(in, r)
		}
	}
	return expectedFunnel(in), nil
}

// writeFiles writes texts[i] as <runs[i].ID>.txt into a fresh dir and
// adds the time it took to the run's file-write total, which set-up
// time excludes: writing a thousand small files on one disk takes from
// tens to hundreds of milliseconds depending on file-system state, and
// that is the benchmark's own I/O, not work the program does.
func (rc *runCtx) writeFiles(dir string, runs []*model.Run, texts []string) error {
	start := time.Now()
	defer func() { rc.writeTime.Add(int64(time.Since(start))) }()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, r := range runs {
		if err := os.WriteFile(filepath.Join(dir, r.ID+".txt"), []byte(texts[i]), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// key is one GET resource of a serve mix.
type key struct {
	Name   string
	Filter string
	Params url.Values // non-filter query parameters
}

// path renders the request path; url.Values sorts its keys, so one key
// always spells the same request.
func (k key) path() string {
	q := url.Values{}
	for p, v := range k.Params {
		q[p] = v
	}
	if k.Filter != "" {
		q.Set("filter", k.Filter)
	}
	if len(q) == 0 {
		return "/v1/analyses/" + k.Name
	}
	return "/v1/analyses/" + k.Name + "?" + q.Encode()
}

// readScopes are the serve-read filter scopes. On vendor and
// year-bounded scopes some analyses fail today (features, confound and
// growth encode a NaN; trends has too few yearly bins); the set-up
// finds those keys and leaves them out of the timed mix (see
// knownDefect).
var readScopes = []string{"", "vendor=intel", "vendor=amd", "os=linux", "since=2016", "year=2010-2015"}

// readKeys is the serve-read working set: every scope × every
// registered analysis with default parameters, plus hac clusterings at
// k = 3…6.
func readKeys() []key {
	var keys []key
	for _, sc := range readScopes {
		for _, name := range analysis.Names() {
			keys = append(keys, key{Name: name, Filter: sc})
		}
		for k := 3; k <= 6; k++ {
			keys = append(keys, key{Name: "clusters", Filter: sc,
				Params: url.Values{"algo": {"hac"}, "k": {strconv.Itoa(k)}}})
		}
	}
	return keys
}

// liveKeys are the serve-live reads: the analyses an append
// invalidates, read with equal weight. No recorded traffic says how
// often each is read, so none is favoured.
var liveKeys = []key{
	{Name: "funnel"},
	{Name: "fig3"},
	{Name: "trends"},
	{Name: "clusters", Params: url.Values{"algo": {"minibatch"}, "k": {"3"}}},
	{Name: "clusters"},
	{Name: "cluster-profiles"},
}

// appendEvery sets the serve-live append cadence: every appendEvery-th
// op of the run, counted across both clients, is a POST /v1/runs. The
// value is an assumption, not a measurement: one append per 31 reads,
// so each read sees about five requests per generation and the first
// of them recomputes. A fixed cadence rather than a random share keeps
// the number of appends proportional to the ops a run makes, so runs
// differ by the system's speed, not by how many appends the draw held.
const appendEvery = 32

// mixRankSeed fixes which working-set key sits at which Zipf rank. It
// is deliberately not the run seed: the traffic distribution stays the
// same across seeds, so runs on different seeds are comparable, while
// the seed still drives the request sequence and the corpus.
const mixRankSeed = 0x5bec

// zipfS is the Zipf exponent of the serve-read mix.
const zipfS = 1.1

// revalidateShare is the share of requests that revalidate with the
// last ETag seen for their key.
const revalidateShare = 0.30

// readMix draws one client's serve-read requests: a key by Zipf rank
// and whether to revalidate.
type readMix struct {
	rank []int // rank → key index
	zipf *rand.Zipf
	rng  *rand.Rand
}

// newReadMix draws over the working-set keys i with timed[i] set. The
// untimed keys drop out of the fixed rank order, so the kept keys keep
// their relative ranks whichever keys drop out.
func newReadMix(timed []bool, seed int64, client int) *readMix {
	var rank []int
	for _, k := range rand.New(rand.NewSource(mixRankSeed)).Perm(len(timed)) {
		if timed[k] {
			rank = append(rank, k)
		}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	return &readMix{
		rank: rank,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(rank)-1)),
		rng:  rng,
	}
}

func (m *readMix) next() (k int, revalidate bool) {
	k = m.rank[m.zipf.Uint64()]
	return k, m.rng.Float64() < revalidateShare
}

// liveMix deals one client's serve-live reads from a deck shuffled
// with the client's seed: each deck holds every key of liveKeys
// liveDeckPerKey times, revalidateShare of those revalidating. Every
// read has its exact share within each deck, so the share of cheap and
// dear reads, and with it the median latency, does not wander with the
// draw.
type liveMix struct {
	rng  *rand.Rand
	deck []liveCard
	next int
}

type liveCard struct {
	key        int
	revalidate bool
}

// liveDeckPerKey is how often a deck holds each live key.
const liveDeckPerKey = 10

func newLiveMix(seed int64, client int) *liveMix {
	m := &liveMix{rng: rand.New(rand.NewSource(seed*1000003 + 7919 + int64(client)))}
	reval := int(math.Round(revalidateShare * liveDeckPerKey))
	for k := range liveKeys {
		for i := range liveDeckPerKey {
			m.deck = append(m.deck, liveCard{k, i < reval})
		}
	}
	m.next = len(m.deck)
	return m
}

func (m *liveMix) draw() (k int, revalidate bool) {
	if m.next == len(m.deck) {
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.next = 0
	}
	c := m.deck[m.next]
	m.next++
	return c.key, c.revalidate
}

// liveFeed is the serve-live corpus split: the base prefix the server
// boots from and the ordered runs POSTed during the run — the rest of
// the seed corpus and extra synthetic corpora, renamed so run ids stay
// unique, in seeded order.
type liveFeed struct {
	base      []*model.Run
	baseTexts []string
	pool      []*model.Run
	poolTexts []string
	// funnelAt[i] is the expected whole-corpus funnel after i appends.
	funnelAt []funnelCounts
}

// liveHeld is how many seed-corpus runs are held back from the
// serve-live base for the append pool.
const liveHeld = 200

// liveExtraSeeds is how many extra synthetic corpora extend the append
// pool, so a much faster program still cannot exhaust it in a run.
const liveExtraSeeds = 2

func newLiveFeed(c *corpus, seed int64) (*liveFeed, error) {
	n := len(c.runs) - liveHeld
	f := &liveFeed{base: c.runs[:n], baseTexts: c.texts[:n]}
	type entry struct {
		run  *model.Run
		text string
	}
	var entries []entry
	for i := n; i < len(c.runs); i++ {
		entries = append(entries, entry{c.runs[i], c.texts[i]})
	}
	for x := 1; x <= liveExtraSeeds; x++ {
		opt := synth.DefaultOptions()
		opt.Seed = seed + int64(x)*7777
		extra, err := synth.Generate(opt)
		if err != nil {
			return nil, fmt.Errorf("generate append corpus: %w", err)
		}
		for _, r := range extra {
			r.ID = fmt.Sprintf("%s-x%d", r.ID, x)
			entries = append(entries, entry{r, report.RenderString(r)})
		}
	}
	// Runs are dealt in seeded order within each funnel stage they
	// reach, and the stages are interleaved in proportion, so every
	// stretch of a run appends the same share of comparable runs (whose
	// appends make the heavy analyses recompute) whatever the seed and
	// however far a faster program gets.
	byStage := make([][]entry, 3)
	for _, e := range entries {
		g := expectedFunnel([]*model.Run{e.run})
		stage := g.Parsed + g.Comparable // 0 rejected at parse, 1 parsed, 2 comparable
		byStage[stage] = append(byStage[stage], e)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, st := range byStage {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	taken := make([]int, len(byStage))
	for range entries {
		best := -1
		for st := range byStage {
			if taken[st] < len(byStage[st]) && (best < 0 ||
				float64(taken[st]+1)/float64(len(byStage[st])) < float64(taken[best]+1)/float64(len(byStage[best]))) {
				best = st
			}
		}
		e := byStage[best][taken[best]]
		taken[best]++
		f.pool = append(f.pool, e.run)
		f.poolTexts = append(f.poolTexts, e.text)
	}
	f.funnelAt = make([]funnelCounts, len(f.pool)+1)
	f.funnelAt[0] = expectedFunnel(f.base)
	for i, r := range f.pool {
		g := expectedFunnel([]*model.Run{r})
		next := f.funnelAt[i]
		next.Raw++
		next.Parsed += g.Parsed
		next.Comparable += g.Comparable
		f.funnelAt[i+1] = next
	}
	return f, nil
}
