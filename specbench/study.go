package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// study is the batch workload: one caller, closed loop; each op builds
// a fresh engine over the corpus directory and writes the JSON report
// of every registered analysis, so parse, ingest, compute and encode
// all block the result.
type study struct {
	rc  *runCtx
	dir string
	ref string // digest of the first report; every op must match it
	// last holds the latest op's engine, as the caller that just wrote
	// a report still does, so the resident heap counts one engine's
	// dataset and memos besides what process-global caches keep.
	last atomic.Pointer[core.Engine]
	// workers is the engines' worker count: 0, which is GOMAXPROCS, or
	// 1 once the run settles for its heap readings.
	workers int
}

func setupStudy(rc *runCtx) (workload, error) {
	c, err := genCorpus(rc.seed)
	if err != nil {
		return nil, err
	}
	s := &study{rc: rc, dir: rc.freshPath("corpus")}
	if err := rc.writeFiles(s.dir, c.runs, c.texts); err != nil {
		return nil, err
	}
	// The priming op pays the one-time costs of a first report and
	// fixes the reference bytes; its funnel must match the corpus.
	body, err := s.report(nil, -1, 0)
	if err != nil {
		return nil, fmt.Errorf("priming report: %w", err)
	}
	f, err := studyFunnel(body)
	if err != nil {
		return nil, err
	}
	if f != c.funnel {
		rc.ledger.violate(fmt.Sprintf("study funnel %+v, want %+v", f, c.funnel))
	}
	s.ref = digest(body)
	if rc.studyRef != "" && rc.studyRef != s.ref {
		rc.ledger.violate("study report differs between set-ups of one seed")
	}
	rc.studyRef = s.ref
	return s, nil
}

func (s *study) clients() int { return 1 }

// report runs one study op. With a tracer it makes the same calls one
// layer at a time — Dataset (parse + ingest), RunRequests (compute),
// WriteJSONRequests (encode of memoized values) — each in its own span.
func (s *study) report(tr *tracer, parent int, op int64) ([]byte, error) {
	eng := core.New(core.WithSource(core.DirSource{Dir: s.dir}), core.WithWorkers(s.workers))
	s.last.Store(eng)
	var buf bytes.Buffer
	if tr == nil {
		err := eng.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	id := tr.begin(spanIngest, parent, op)
	_, err := eng.Dataset()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(spanCompute, parent, op)
	_, err = eng.RunRequests()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(spanEncode, parent, op)
	err = eng.WriteJSONRequests(&buf)
	tr.end(id)
	return buf.Bytes(), err
}

// Span names of the study op's layers.
const (
	spanStudyOp = "study.op"
	spanIngest  = "core.Engine.Dataset"
	spanCompute = "core.Engine.RunRequests"
	spanEncode  = "core.Engine.WriteJSONRequests"
)

func (s *study) op(_ int, tr *tracer, op int64) (time.Duration, bool) {
	start := time.Now()
	root := tr.begin(spanStudyOp, -1, op)
	body, err := s.report(tr, root, op)
	tr.end(root)
	d := time.Since(start)
	switch {
	case err != nil:
		s.rc.ledger.fail("study report: " + err.Error())
		return d, false
	case digest(body) != s.ref:
		s.rc.ledger.violate("study report bytes differ from the first op")
		return d, false
	}
	s.rc.ledger.ok()
	return d, true
}

// ringTurnover is how many single-worker ops refill every slot of the
// cluster package's memo rings, which hold 8 entries; each study op
// puts at least one entry into each ring it uses.
const ringTurnover = 8

// settle switches the engines to one worker and runs ringTurnover ops.
// At two workers, concurrent analyses that miss the same memo both fill
// a slot, so how many datasets the rings retain, and with them the live
// heap, depends on how the workers interleaved; at one worker every op
// fills the same slots, and the heap readings that follow repeat.
func (s *study) settle() {
	s.workers = 1
	for range ringTurnover {
		s.op(0, nil, -1)
	}
}

func (s *study) finish() error { return nil }

func (s *study) summary() []string { return nil }
