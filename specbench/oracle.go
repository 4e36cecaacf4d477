package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// ledger is the run's failure accounting. Every timed op is attempted
// once and ends either ok or failed; a failed op is counted, never
// dropped, and never aborts the run. A violation is a failed op whose
// output broke an invariant the benchmark checks, which makes the run
// incorrect; a plain failure (an error status the program returned) is
// a failed op on a correct run.
type ledger struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	violations int64
	reasons    map[string]int64
}

func newLedger() *ledger { return &ledger{reasons: map[string]int64{}} }

// ok records a successful op.
func (l *ledger) ok() {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
}

// fail records a failed op.
func (l *ledger) fail(reason string) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	l.reasons[reason]++
	l.mu.Unlock()
}

// violate records a failed op that broke an invariant.
func (l *ledger) violate(reason string) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	l.violations++
	l.reasons["VIOLATION "+reason]++
	l.mu.Unlock()
}

// counts returns attempted, failed and whether no invariant broke.
func (l *ledger) counts() (attempted, failed int64, correct bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed, l.violations == 0
}

// report lists failure reasons with counts, sorted.
func (l *ledger) report() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.reasons))
	for r, n := range l.reasons {
		out = append(out, fmt.Sprintf("%6d  %s", n, r))
	}
	sort.Strings(out)
	return out
}

// digest is the hex SHA-256 of a body.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// etagBodies checks that one ETag always labels one body.
type etagBodies struct {
	mu sync.Mutex
	m  map[string]string // etag → body digest
}

func newEtagBodies() *etagBodies { return &etagBodies{m: map[string]string{}} }

// check records etag → bodyDigest and reports false if the ETag was
// seen before with a different body.
func (c *etagBodies) check(etag, bodyDigest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[etag]; ok {
		return prev == bodyDigest
	}
	c.m[etag] = bodyDigest
	return true
}

// solicited304 reports whether a 304 carrying etag answers a request
// that sent the matching If-None-Match.
func solicited304(ifNoneMatch, etag string) bool {
	return ifNoneMatch != "" && ifNoneMatch == etag
}

// generations checks that append generations strictly increase.
type generations struct {
	mu   sync.Mutex
	last uint64
	seen bool
}

func (g *generations) check(gen uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ok := !g.seen || gen > g.last
	g.last, g.seen = gen, true
	return ok
}

// lastETags remembers the last ETag seen per key, for revalidation.
type lastETags struct {
	mu sync.Mutex
	m  map[string]string
}

func newLastETags() *lastETags { return &lastETags{m: map[string]string{}} }

func (l *lastETags) get(k string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[k]
}

func (l *lastETags) set(k, etag string) {
	l.mu.Lock()
	l.m[k] = etag
	l.mu.Unlock()
}

// identities maps a served resource identity — generation, scope,
// analysis and canonical params — to the digest of its body. Within a
// run an identity must always serve the same bytes; across runs of one
// workload and seed it should too, and disagreements are counted.
type identities struct {
	mu sync.Mutex
	m  map[string]string
}

func newIdentities() *identities { return &identities{m: map[string]string{}} }

func identityOf(gen uint64, k key) string {
	return fmt.Sprintf("g%d %s", gen, k.path())
}

// record stores id → bodyDigest and reports false if id served other
// bytes before in this run.
func (s *identities) record(id, bodyDigest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[id]; ok {
		return prev == bodyDigest
	}
	s.m[id] = bodyDigest
	return true
}

// saveAndCompare writes this run's identity map under dir as
// <prefix>-<unique>.json and compares it with every earlier map with
// the same prefix. It returns how many earlier maps there were and how
// many identities disagree with at least one of them.
func (s *identities) saveAndCompare(dir, prefix string) (runs, differing int, err error) {
	s.mu.Lock()
	mine := make(map[string]string, len(s.m))
	for id, d := range s.m {
		mine[id] = d
	}
	s.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	earlier, err := filepath.Glob(filepath.Join(dir, prefix+"-*.json"))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(earlier)
	bad := map[string]bool{}
	for _, path := range earlier {
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		var other map[string]string
		if err := json.Unmarshal(raw, &other); err != nil {
			return 0, 0, fmt.Errorf("read identity map %s: %w", path, err)
		}
		for id, d := range mine {
			if e, ok := other[id]; ok && e != d {
				bad[id] = true
			}
		}
	}
	raw, err := json.Marshal(mine)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.CreateTemp(dir, prefix+"-*.json")
	if err != nil {
		return 0, 0, err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return len(earlier), len(bad), nil
}

// decodeFunnel reads the funnel counts out of an analysis body
// ({"value": {...}}) or a report entry.
func decodeFunnel(body []byte) (funnelCounts, error) {
	var v struct {
		Value funnelCounts `json:"value"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return funnelCounts{}, err
	}
	return v.Value, nil
}

// studyFunnel finds the funnel entry of a full JSON report.
func studyFunnel(report []byte) (funnelCounts, error) {
	var entries []json.RawMessage
	if err := json.Unmarshal(report, &entries); err != nil {
		return funnelCounts{}, err
	}
	for _, e := range entries {
		var head struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(e, &head); err == nil && head.Name == "funnel" {
			return decodeFunnel(e)
		}
	}
	return funnelCounts{}, fmt.Errorf("report has no funnel entry")
}

// shortErr trims an error body to one short line for failure reasons.
// knownDefects are the errors of the 500s the program gives today for
// some analyses on some filter scopes: a NaN the JSON encoder refuses,
// and a trend over a scope with too few yearly bins. Which keys hit
// them depends on the corpus, so on the seed.
var knownDefects = []*regexp.Regexp{
	regexp.MustCompile(`json: unsupported value: NaN`),
	regexp.MustCompile(`has only \d+ yearly bins`),
}

// knownDefect reports whether a reply is a 500 with one of the
// knownDefects. The serve-read set-up leaves such keys out of the
// timed mix and lists them in the run's output; any other error stays
// in the mix and counts as a failed op.
func knownDefect(status int, body []byte) bool {
	if status != http.StatusInternalServerError {
		return false
	}
	for _, re := range knownDefects {
		if re.Match(body) {
			return true
		}
	}
	return false
}

func shortErr(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 90 {
		s = s[:90] + "…"
	}
	return s
}
