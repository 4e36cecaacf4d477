// Command spectop is a live terminal dashboard for a running specserve:
// it polls GET /metrics, /v1/stats, and /v1/pool and renders pool
// occupancy (one row per resident scope engine), request and stage
// latency summaries, and cache hit ratios (engine memo, gob parse
// cache), refreshing in place until interrupted.
//
// Usage:
//
//	spectop [-addr http://localhost:8080] [-interval 2s] [-once]
//
// -once renders a single snapshot and exits (no screen clearing) — the
// scriptable form used by CI smoke tests; the exit status is non-zero
// if any endpoint cannot be fetched or parsed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spectop: ")
	addr := flag.String("addr", "http://localhost:8080", "specserve base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll interval (live mode)")
	once := flag.Bool("once", false, "render one snapshot and exit")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	if *once {
		snap, err := fetch(client, *addr)
		if err != nil {
			log.Fatal(err)
		}
		render(os.Stdout, *addr, snap)
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		snap, err := fetch(client, *addr)
		var buf strings.Builder
		buf.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		if err != nil {
			fmt.Fprintf(&buf, "spectop: %v (retrying every %s)\n", err, *interval)
		} else {
			render(&buf, *addr, snap)
		}
		os.Stdout.WriteString(buf.String())
		select {
		case <-sigc:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// snapshot is one poll of the three introspection surfaces.
type snapshot struct {
	stats   serve.StatsSnapshot
	pool    serve.PoolSnapshot
	metrics map[string]float64
}

func fetch(client *http.Client, base string) (*snapshot, error) {
	snap := &snapshot{}
	if err := getJSON(client, base+"/v1/stats", &snap.stats); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/v1/pool", &snap.pool); err != nil {
		return nil, err
	}
	body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	snap.metrics = parseMetrics(body)
	return snap, nil
}

func get(client *http.Client, url string) (io.ReadCloser, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

func getJSON(client *http.Client, url string, v any) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("%s: decode: %w", url, err)
	}
	return nil
}

// parseMetrics reads a Prometheus text exposition into a flat
// series → value map, keys kept verbatim including label sets
// (`specserve_pool_evictions_total{reason="lru"}`).
func parseMetrics(r io.Reader) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// ratio renders hits/(hits+misses) as a percentage, "-" when idle.
func ratio(hits, misses float64) string {
	total := hits + misses
	if total == 0 {
		return "    -"
	}
	return fmt.Sprintf("%5.1f%%", 100*hits/total)
}

func ms(ns int64) string {
	return fmt.Sprintf("%8.2fms", float64(ns)/1e6)
}

func approxSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func shortFp(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "-"
	}
	return fp
}

func render(w io.Writer, addr string, s *snapshot) {
	st, mx := s.stats, s.metrics
	fmt.Fprintf(w, "specserve top — %s   up %.1fs   analyses %d\n\n",
		addr, st.UptimeSeconds, st.Analyses)

	fmt.Fprintf(w, "requests   total %-8d 304 %-6d 4xx %-6d 5xx %-6d busy-rejects %-6d in-flight %d\n",
		st.Requests, st.NotModified, st.ClientErrors, st.Errors, st.RejectedBusy, st.InFlight)
	fmt.Fprintf(w, "pool       %d/%d engines   builds %-6d hits %-6d misses %-6d joins %-6d hit ratio %s\n",
		st.PoolEngines, st.PoolCapacity, st.EngineBuilds,
		st.PoolHits, st.PoolMisses, st.PoolJoins,
		strings.TrimSpace(ratio(float64(st.PoolHits), float64(st.PoolMisses))))
	fmt.Fprintf(w, "evictions  lru %.0f   build_failed %.0f   ingestion_failed %.0f\n",
		mx[`specserve_pool_evictions_total{reason="lru"}`],
		mx[`specserve_pool_evictions_total{reason="build_failed"}`],
		mx[`specserve_pool_evictions_total{reason="ingestion_failed"}`])
	if st.Live != nil {
		fmt.Fprintf(w, "live       generation %-6d appends %-6d appended runs %d\n",
			st.Live.Generation, st.Live.Appends, st.Live.AppendedRuns)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-28s %-12s %4s %6s %6s %7s %6s %9s %10s\n",
		"POOL SCOPE", "FPRINT", "GEN", "AGE", "HITS", "RUNS", "MEMOS", "MEMO H/M", "~BYTES")
	for _, e := range s.pool.Engines { // server-sorted by canonical filter
		name := e.Filter
		if name == "" {
			name = "(all)"
		}
		if e.Building {
			fmt.Fprintf(w, "%-28s %-12s %4s %6d %6d %s\n",
				name, "building…", "-", e.AgeRequests, e.Hits, "")
			continue
		}
		fmt.Fprintf(w, "%-28s %-12s %4d %6d %6d %7d %6d %4d/%-4d %10s\n",
			name, shortFp(e.Fingerprint), e.Generation, e.AgeRequests, e.Hits, e.RunsIngested,
			e.MemoEntries, e.MemoHits, e.MemoMisses, approxSize(e.ApproxBytes))
	}
	if len(s.pool.Engines) == 0 {
		fmt.Fprintf(w, "  (no resident engines yet)\n")
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s\n", "STAGE", "COUNT", "P50", "P95", "P99")
	for _, sg := range st.Stages { // canonical stage order from the server
		fmt.Fprintf(w, "%-14s %8d %10s %10s %10s\n",
			sg.Stage, sg.Count, ms(sg.P50Ns), ms(sg.P95Ns), ms(sg.P99Ns))
	}
	if len(st.Stages) == 0 {
		fmt.Fprintf(w, "  (no stage samples yet)\n")
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-16s %7s   %s\n", "CACHE", "RATIO", "HITS/MISSES")
	cacheRow := func(name, hitsKey, missesKey string) {
		h, m := mx[hitsKey], mx[missesKey]
		fmt.Fprintf(w, "%-16s %7s   %.0f/%.0f\n", name, ratio(h, m), h, m)
	}
	cacheRow("memo", "specserve_memo_hits_total", "specserve_memo_misses_total")
	cacheRow("parse",
		"specserve_parse_cache_hits_total", "specserve_parse_cache_misses_total")

	if st.Audit != nil {
		fmt.Fprintf(w, "\naudit      records %-8d queue %.0f   flushes batch %.0f / interval %.0f / close %.0f\n",
			st.Audit.Records,
			mx["specserve_audit_queue_depth"],
			mx[`specserve_audit_queue_flushes_total{reason="batch"}`],
			mx[`specserve_audit_queue_flushes_total{reason="interval"}`],
			mx[`specserve_audit_queue_flushes_total{reason="close"}`])
	}
}
