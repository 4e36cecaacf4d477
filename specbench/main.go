// Command specbench is the repository's end-to-end and per-layer
// benchmark. It drives seeded workloads through the public APIs of
// internal/core, internal/serve, internal/parser and internal/analysis,
// checks the outputs, and prints one JSON result as its last line:
//
//	bash specbench/run.sh --workload study --seed 14 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes
// the separate traced run that times each layer's calls from outside
// and reports the per-layer metrics and the tracing overhead.
// --steady N repeats the run on N consecutive seeds in subprocesses
// and prints each metric's quartile spread against its bound in
// BENCHMARK.json. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set-up system under load. op runs one closed-loop
// operation for client c and returns its latency and whether it
// succeeded; it records its outcome in the run's ledger. finish stops
// the system and runs the end-of-run checks; files stay until the run
// ends, so no set-up deletes them while another is measured.
type workload interface {
	clients() int
	op(c int, tr *tracer, op int64) (time.Duration, bool)
	finish() error
	summary() []string
}

// settler is a workload whose retained memory depends on how its
// concurrent work interleaved; settle brings it to a state that does
// not, before the live-heap readings.
type settler interface{ settle() }

type workloadDef struct {
	name  string
	tailP float64 // percentile tail_ms reports
	// windows is how many equal windows ops_per_s and p50_ms are taken
	// over, as medians; 1 where ops are too few per window.
	windows int
	setup   func(*runCtx) (workload, error)
}

var workloads = []workloadDef{
	{"study", 75, 1, setupStudy},
	{"serve-read", 99, 10, setupServeRead},
	{"serve-live", 99, 4, setupServeLive},
}

// setups is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setups = 5

// setupAllowance and endAllowance bound, for the watchdog, one set-up
// and what a run does outside its loops and set-ups: the single ops
// after the loop, teardown and output. Both are many times what they
// take on a 2-CPU machine.
const (
	setupAllowance = 15 * time.Second
	endAllowance   = 45 * time.Second
)

// heapSamples is how many live-heap readings resident_heap_mb is the
// mean of.
const heapSamples = 8

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_out"

// runCtx is one benchmark run's shared state.
type runCtx struct {
	workload string
	seed     int64
	scratch  string
	ledger   *ledger
	studyRef string // first study report digest, across set-ups

	paths     atomic.Int64
	writeTime atomic.Int64 // ns spent writing result files
	notes     []string
}

// freshPath names a file or directory in the run's scratch directory
// that no other call names.
func (rc *runCtx) freshPath(name string) string {
	return filepath.Join(rc.scratch, fmt.Sprintf("%d-%s", rc.paths.Add(1), name))
}

// identityNote saves the run's identity map and notes how many
// identities disagree with earlier runs of the same workload and seed.
func (rc *runCtx) identityNote(ids *identities) {
	runs, differing, err := ids.saveAndCompare(filepath.Join(outDir, "identity"),
		fmt.Sprintf("%s-seed%d", rc.workload, rc.seed))
	if err != nil {
		rc.notes = append(rc.notes, "identity map: "+err.Error())
		return
	}
	rc.notes = append(rc.notes, fmt.Sprintf(
		"identity agreement: %d identities differ from %d earlier run(s) of this workload and seed", differing, runs))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func main() {
	name := flag.String("workload", "", "workload: study, serve-read or serve-live")
	seed := flag.Int64("seed", 14, "corpus and mix seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "repeat the run on this many consecutive seeds and print metric spreads")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced, steady int) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || traced < 0 || traced > 1 {
		return errors.New("--seconds must be ≥1 and --trace 0 or 1")
	}
	if steady > 0 {
		return steadiness(name, seed, seconds, traced, steady)
	}
	budget := time.Duration(seconds) * time.Second
	// A hung system must not keep the run from ending; the limit grows
	// with the measured budget and the number of set-ups.
	limit := budget + setups*setupAllowance + endAllowance
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "specbench: watchdog: run exceeded %s\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	runtime.GOMAXPROCS(runtime.NumCPU())

	scratch, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rc := &runCtx{workload: name, seed: seed, scratch: scratch, ledger: newLedger()}

	var mets map[string]metric
	var extra []string
	if traced == 1 {
		mets, err = tracedRun(rc, def, budget)
	} else {
		mets, extra, err = untracedRun(rc, def, budget)
	}
	if err != nil {
		return err
	}
	attempted, failed, correct := rc.ledger.counts()
	if attempted < 1 {
		return errors.New("no op was attempted")
	}
	names := make([]string, 0, len(mets))
	for n := range mets {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %d trace %d  (%s, GOMAXPROCS %d, nproc %d)\n",
		name, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range names {
		m := mets[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", n)
		}
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, line := range append(extra, rc.notes...) {
		fmt.Println("  " + line)
	}
	fmt.Printf("  ops %d failed %d correct %v\n", attempted, failed, correct)
	for _, line := range rc.ledger.report() {
		fmt.Println("  failed " + line)
	}
	out, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: mets})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setUp sets the workload up `setups` times, tearing down all but the
// last, and returns the last with every set-up's duration, less the
// time spent writing result files (see runCtx.writeFiles).
func setUp(rc *runCtx, def *workloadDef) (workload, []float64, error) {
	var w workload
	var secs, writes []float64
	for i := range setups {
		if w != nil {
			if err := w.finish(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		write0 := rc.writeTime.Load()
		var err error
		if w, err = def.setup(rc); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		write := time.Duration(rc.writeTime.Load() - write0)
		secs = append(secs, (time.Since(start) - write).Seconds())
		writes = append(writes, write.Seconds())
	}
	rc.notes = append(rc.notes, fmt.Sprintf("set-up wrote result files for %.3f s (median, not in setup_s)", median(writes)))
	return w, secs, nil
}

// sample is one successful op: when it ended, relative to the start of
// its loop, and its latency in ms.
type sample struct {
	at time.Duration
	ms float64
}

// closedLoop runs every client of w back to back until d has passed and
// returns the successful ops and the elapsed time.
func closedLoop(w workload, tr *tracer, d time.Duration, opSeq *atomic.Int64) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, w.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if d, ok := w.op(c, tr, opSeq.Add(1)); ok {
					per[c] = append(per[c], sample{time.Since(start), ms(d)})
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.ms
	}
	return out
}

// windowed splits a loop of length elapsed into k equal windows and
// returns each window's op rate, median latency and p-th percentile
// latency, the last only for windows whose sample count supports p.
// Medians over windows keep a burst of interference — another tenant
// taking the CPU for a second — from moving a run's figures.
func windowed(s []sample, elapsed time.Duration, k int, p float64) (rates, p50s, tails []float64) {
	win := elapsed / time.Duration(k)
	byWin := make([][]float64, k)
	for _, x := range s {
		i := min(int(x.at/win), k-1)
		byWin[i] = append(byWin[i], x.ms)
	}
	for _, l := range byWin {
		rates = append(rates, float64(len(l))/win.Seconds())
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 50))
		}
		if tailRule(len(l)) >= p {
			tails = append(tails, percentile(l, p))
		}
	}
	return rates, p50s, tails
}

// untracedRun measures the end-to-end metrics.
func untracedRun(rc *runCtx, def *workloadDef, budget time.Duration) (map[string]metric, []string, error) {
	w, setupSecs, err := setUp(rc, def)
	if err != nil {
		return nil, nil, err
	}
	attempted0, _, _ := rc.ledger.counts()
	var opSeq atomic.Int64
	alloc0 := heapAllocBytes()
	done, elapsed := closedLoop(w, nil, budget, &opSeq)
	alloc1 := heapAllocBytes()
	attempted1, _, _ := rc.ledger.counts()
	n := len(done)
	rates, p50s, tails := windowed(done, elapsed, def.windows, def.tailP)
	short := len(tails) < def.windows
	if len(tails) == 0 && n > 0 {
		tails = []float64{percentile(latencies(done), def.tailP)}
	}
	extra := w.summary()
	if s, ok := w.(settler); ok {
		s.settle()
	}
	// The live heap depends on which results the program's caches hold
	// as it is read, and that moves in steps of a cached result's size
	// from op to op; the mean over readings after several single ops
	// is steadier than any one reading.
	heap := []float64{float64(liveHeapBytes())}
	for range heapSamples - 1 {
		w.op(0, nil, -1)
		heap = append(heap, float64(liveHeapBytes()))
	}
	if err := w.finish(); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, errors.New("no op succeeded")
	}
	ops := max(attempted1-attempted0, 1)
	extra = append(extra, fmt.Sprintf("heap readings MiB %.2f", scale(heap, 1.0/(1<<20))))
	if short {
		extra = append(extra, fmt.Sprintf("WARNING: not every window holds enough samples for p%g", def.tailP))
	}
	extra = append(extra, fmt.Sprintf("window ops_per_s %.0f", rates),
		fmt.Sprintf("window p50_ms %.4f", p50s), fmt.Sprintf("window tail_ms %.4f", tails))
	extra = append(extra, fmt.Sprintf("tail_ms is p%g, median over %d window(s) of %d successful ops in all",
		def.tailP, def.windows, n))
	return map[string]metric{
		"setup_s":          {median(setupSecs), "s"},
		"ops_per_s":        {median(rates), "1/s"},
		"p50_ms":           {median(p50s), "ms"},
		"tail_ms":          {median(tails), "ms"},
		"alloc_kb_per_op":  {float64(alloc1-alloc0) / 1024 / float64(ops), "KiB"},
		"resident_heap_mb": {mean(heap) / (1 << 20), "MiB"},
	}, extra, nil
}

// tracedRun spends part of the budget measuring the tracing overhead on
// the workload's own loop (untraced and traced chunks alternating), the
// rest on rounds of per-layer probes, and writes the spans out.
func tracedRun(rc *runCtx, def *workloadDef, budget time.Duration) (map[string]metric, error) {
	tr := newTracer()
	w, err := def.setup(rc)
	if err != nil {
		return nil, err
	}
	var opSeq atomic.Int64
	const chunks = 3
	chunk := budget * 2 / 5 / (2 * chunks)
	var plain, withSpans []float64
	for range chunks {
		l, _ := closedLoop(w, nil, chunk, &opSeq)
		plain = append(plain, latencies(l)...)
		l, _ = closedLoop(w, tr, chunk, &opSeq)
		withSpans = append(withSpans, latencies(l)...)
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	if len(plain) == 0 || len(withSpans) == 0 {
		return nil, errors.New("no op succeeded in the overhead phase")
	}
	overhead := (percentile(withSpans, 50)/percentile(plain, 50) - 1) * 100

	mets, err := layerRounds(rc, tr, time.Now().Add(budget*3/5))
	if err != nil {
		return nil, err
	}
	mets["bench.trace_overhead_pct"] = metric{overhead, "%"}
	if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "spans", rc.workload+"-seed"+strconv.FormatInt(rc.seed, 10)+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	rc.notes = append(rc.notes, fmt.Sprintf("%d spans written to %s", len(tr.snapshot()), path))
	return mets, nil
}
