package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/model"
)

// AppendSource is a Source that grows while it is being served: an
// inner source (the corpus as booted) plus an in-memory overlay of runs
// appended afterwards, stamped with a generation counter that advances
// on every change. Each streams the inner source first, then the
// overlay in append order, so the stream stays deterministic for a
// fixed append sequence.
//
// The generation and the batch boundaries compose into the
// fingerprint, so ETags derived from it change exactly when content
// does — including when the change happened underneath the inner
// source (a watcher dropping a new result file into a DirSource's
// directory advances the generation via Bump without duplicating the
// file into the overlay). Each Append batch is one generation of the
// lineage an engine over this source replays (see generational), so
// warm-started results depend on how runs were batched, and the
// fingerprint says so.
//
// All methods are safe for concurrent use.
type AppendSource struct {
	inner Source

	mu       sync.RWMutex
	appended []*model.Run
	ends     []int // overlay length after each Append: the batch boundaries
	gen      uint64
}

// NewAppendSource wraps inner at generation 0 with an empty overlay.
func NewAppendSource(inner Source) *AppendSource {
	return &AppendSource{inner: inner}
}

// Name implements Source.
func (s *AppendSource) Name() string {
	s.mu.RLock()
	n, gen := len(s.appended), s.gen
	s.mu.RUnlock()
	return fmt.Sprintf("append(%s, +%d@g%d)", s.inner.Name(), n, gen)
}

// Each implements Source: the inner stream, then the overlay in append
// order. The overlay is snapshotted up front, so a stream observes one
// generation's overlay even if appends land while the inner source is
// still draining — callers needing the stream to match a specific
// generation exclude appends for the duration, as the serving pool
// does.
func (s *AppendSource) Each(workers int, yield func(*model.Run) error) error {
	s.mu.RLock()
	overlay := s.appended[:len(s.appended):len(s.appended)]
	s.mu.RUnlock()
	if err := s.inner.Each(workers, yield); err != nil {
		return err
	}
	return SliceSource(overlay).Each(workers, yield)
}

// Append adds runs to the overlay and advances the generation,
// returning the new generation. Use it for runs that exist nowhere
// else (the POST /v1/runs path); runs whose files already joined the
// inner source belong to Bump instead, or they would be delivered
// twice on the next cold ingestion.
func (s *AppendSource) Append(runs ...*model.Run) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appended = append(s.appended, runs...)
	s.ends = append(s.ends, len(s.appended))
	s.gen++
	return s.gen
}

// Bump advances the generation without touching the overlay, for
// growth that happened inside the inner source (new result files in a
// watched directory). The inner fingerprint already reflects the new
// content; bumping keeps the generation a complete change counter.
func (s *AppendSource) Bump() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	return s.gen
}

// Generation returns the current generation: the number of Append and
// Bump calls so far.
func (s *AppendSource) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// AppendedRuns reports the overlay size.
func (s *AppendSource) AppendedRuns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.appended)
}

// Fingerprint implements Fingerprinter: the generation, the inner
// fingerprint, and each overlay batch's size and run IDs, all under one
// lock so a fingerprint never mixes two generations' overlays.
func (s *AppendSource) Fingerprint() (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	inner, err := SourceFingerprint(s.inner)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(s.appended)+len(s.ends)+3)
	parts = append(parts, "append", strconv.FormatUint(s.gen, 10), inner)
	start := 0
	for _, end := range s.ends {
		parts = append(parts, strconv.Itoa(end-start))
		for _, r := range s.appended[start:end] {
			parts = append(parts, r.ID)
		}
		start = end
	}
	return Digest(parts...), nil
}

// generations implements generational: the inner source, then each
// Append batch.
func (s *AppendSource) generations() []Source {
	s.mu.RLock()
	defer s.mu.RUnlock()
	gens := make([]Source, 0, len(s.ends)+1)
	gens = append(gens, s.inner)
	start := 0
	for _, end := range s.ends {
		gens = append(gens, SliceSource(s.appended[start:end:end]))
		start = end
	}
	return gens
}
