package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// minibatchParams resolves the fixed parameterization the live test
// replays: algo=minibatch with an explicit k so every generation
// clusters, plus the default seed.
func minibatchParams(t *testing.T) analysis.Params {
	t.Helper()
	reg, ok := analysis.Lookup("clusters")
	if !ok {
		t.Fatal("clusters not registered")
	}
	p, err := reg.Params.Resolve(map[string]string{"algo": "minibatch", "k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// appendTranscript replays one fixed append sequence — ingest base,
// then fold in each batch — querying the mini-batch clustering (and its
// profile sibling, concurrently) after every generation, and returns
// the concatenated JSON of everything served.
func appendTranscript(t *testing.T, base []*model.Run, batches [][]*model.Run, p analysis.Params) []byte {
	t.Helper()
	eng := core.New(core.WithSource(core.SliceSource(base)), core.WithWorkers(4))
	var buf bytes.Buffer
	record := func() {
		results, err := eng.RunRequests(
			core.Request{Name: "clusters", Params: p},
			core.Request{Name: "cluster-profiles", Params: p},
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			b, err := json.Marshal(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	record()
	for _, batch := range batches {
		if _, err := eng.Append(batch); err != nil {
			t.Fatal(err)
		}
		record()
	}
	return buf.Bytes()
}

// transcriptDigest is the SHA-256 of the 139000-byte transcript below.
const transcriptDigest = "3f1c80bab8e28d72d6e6fda7503a2558bddddf3dc1d081f1a68358ee166ffd2d"

// TestMiniBatchAppendSequenceDeterministic is the live-clustering
// acceptance pin: for a fixed seed and a fixed append sequence, the
// mini-batch partition served after every generation is byte-identical
// across 10 independent replays — warm starts included — so online
// clustering is reproducible run-to-run even though it is
// append-order-dependent.
func TestMiniBatchAppendSequenceDeterministic(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Three append batches of growing size, carved off the corpus tail
	// so every replay folds in exactly the same runs in the same order.
	n := len(runs)
	base := runs[:n-14]
	batches := [][]*model.Run{runs[n-14 : n-10], runs[n-10 : n-4], runs[n-4:]}
	p := minibatchParams(t)

	want := appendTranscript(t, base, batches, p)
	if len(want) == 0 {
		t.Fatal("empty transcript")
	}
	// Every generation is requested, so every warm start is taken:
	// these are the bytes served before warm state became a fold over
	// the lineage, and the fold must not change them.
	if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != transcriptDigest {
		t.Errorf("transcript (%d bytes) hashes to %s, want %s", len(want), got, transcriptDigest)
	}
	var result cluster.Result
	if err := json.Unmarshal(bytes.SplitN(want, []byte("\n"), 2)[0], &result); err != nil {
		t.Fatal(err)
	}
	if result.Algo != "minibatch" || result.K != 3 {
		t.Fatalf("transcript leads with algo=%s k=%d, want minibatch k=3", result.Algo, result.K)
	}
	for rep := 1; rep < 10; rep++ {
		got := appendTranscript(t, base, batches, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("replay %d diverged from the first transcript", rep)
		}
	}
}

// lineageTarget is the first 16 hex digits of the SHA-256 of the
// JSON-encoded gen-1 "clusters?algo=minibatch&k=3" value over the
// seed-14 corpus with its last 200 runs appended in one batch: gen 1
// warm-started from gen 0. Every history below must serve exactly it.
const lineageTarget = "4d8350ba6526f06b"

// TestMiniBatchOneLineageOneBody: one append lineage serves one body,
// whatever happened before the request — gen 0 clustered first or
// never, other engines' mini-batch traffic in between, or a fresh
// engine rebuilt over the grown source — at one worker and two.
// "cluster-profiles" describes the same partition.
func TestMiniBatchOneLineageOneBody(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := len(runs)
	base, batch := runs[:n-200], runs[n-200:]
	p := minibatchParams(t)
	clusters := core.Request{Name: "clusters", Params: p}
	histories := []struct {
		name string
		// before runs on the gen-0 engine ahead of the append.
		before func(t *testing.T, eng *core.Engine, workers int)
		// fresh serves gen 1 from a new engine over the grown source.
		fresh bool
	}{
		{name: "gen0-first", before: func(t *testing.T, eng *core.Engine, _ int) {
			if _, err := eng.AnalysisRequest(clusters); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "gen0-never", before: func(t *testing.T, eng *core.Engine, _ int) {
			if _, err := eng.Dataset(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "other-engines-between", before: func(t *testing.T, eng *core.Engine, workers int) {
			if _, err := eng.AnalysisRequest(clusters); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 10; i++ {
				other := core.New(core.WithSource(core.SliceSource(runs[:n-10*i])), core.WithWorkers(workers))
				if _, err := other.AnalysisRequest(clusters); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "fresh-engine-at-gen1", before: func(t *testing.T, eng *core.Engine, _ int) {
			if _, err := eng.AnalysisRequest(clusters); err != nil {
				t.Fatal(err)
			}
		}, fresh: true},
	}
	for _, workers := range []int{1, 2} {
		for _, h := range histories {
			t.Run(fmt.Sprintf("%s/workers=%d", h.name, workers), func(t *testing.T) {
				src := core.NewAppendSource(core.SliceSource(base))
				eng := core.New(core.WithSource(src), core.WithWorkers(workers))
				h.before(t, eng, workers)
				src.Append(batch...)
				if _, err := eng.Append(batch); err != nil {
					t.Fatal(err)
				}
				if h.fresh {
					eng = core.New(core.WithSource(src), core.WithWorkers(workers))
				}
				results, err := eng.RunRequests(clusters, core.Request{Name: "cluster-profiles", Params: p})
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(results[0].Value)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(body))[:16]; got != lineageTarget {
					t.Errorf("gen-1 body hashes to %s, want %s", got, lineageTarget)
				}
				res := results[0].Value.(cluster.Result)
				prof := results[1].Value.(cluster.ProfileSet)
				if prof.K != res.K || len(prof.Profiles) != len(res.Sizes) {
					t.Fatalf("profiles k=%d (%d profiles), clusters k=%d", prof.K, len(prof.Profiles), res.K)
				}
				for i, pr := range prof.Profiles {
					if pr.Size != res.Sizes[i] {
						t.Errorf("cluster %d: profile size %d, clusters size %d", i, pr.Size, res.Sizes[i])
					}
				}
			})
		}
	}
}

// TestPartitionSharedAcrossConcurrentMisses: "clusters" and
// "cluster-profiles" missing concurrently — Engine.RunRequests fans
// them out — compute their shared partition once: the k-means kernel
// runs one time, so its first iteration is reported once.
func TestPartitionSharedAcrossConcurrentMisses(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := analysis.Lookup("clusters")
	p, err := reg.Params.Resolve(map[string]string{"k": "4"})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		var starts atomic.Int64
		eng := core.New(core.WithSource(core.SliceSource(runs)), core.WithWorkers(4),
			core.WithSink(func(ev core.Event) {
				if ev.Kind == core.EventKernel && ev.Kernel.Kernel == "kmeans" && ev.Kernel.Index == 1 {
					starts.Add(1)
				}
			}))
		if _, err := eng.Dataset(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunRequests(
			core.Request{Name: "clusters", Params: p},
			core.Request{Name: "cluster-profiles", Params: p},
		); err != nil {
			t.Fatal(err)
		}
		if n := starts.Load(); n != 1 {
			t.Fatalf("rep %d: k-means ran %d times for one partition, want 1", rep, n)
		}
	}
}
