package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// FilterSource streams only the runs of Inner that satisfy Keep — a
// corpus slice (per-vendor, per-year, since-N, …) expressed as a source,
// so every engine feature works on the slice unchanged. A nil Keep
// passes everything through.
type FilterSource struct {
	Inner Source
	Keep  func(*model.Run) bool
	// Desc names the predicate in Name() and error messages, e.g.
	// "vendor=AMD,since=2021".
	Desc string
}

// Name implements Source.
func (s FilterSource) Name() string {
	d := s.Desc
	if d == "" {
		d = "func"
	}
	return fmt.Sprintf("filter(%s, %s)", d, s.Inner.Name())
}

// Each implements Source. Filtering happens on the consumer side of the
// inner stream, so the inner source's ordering, parallelism, and
// streaming bound are preserved.
func (s FilterSource) Each(workers int, yield func(*model.Run) error) error {
	if s.Keep == nil {
		return s.Inner.Each(workers, yield)
	}
	return s.Inner.Each(workers, func(r *model.Run) error {
		if !s.Keep(r) {
			return nil
		}
		return yield(r)
	})
}

// MergeSource concatenates several sources — corpus directories,
// synthetic corpora, slices, other combinators — into one stream.
// Sources are drained in slice order, each in its own deterministic
// order, so the merged stream is deterministic too.
type MergeSource []Source

// Name implements Source.
func (s MergeSource) Name() string {
	names := make([]string, len(s))
	for i, src := range s {
		names[i] = src.Name()
	}
	return "merge(" + strings.Join(names, " + ") + ")"
}

// Each implements Source. The first source error or yield error stops
// the whole stream.
func (s MergeSource) Each(workers int, yield func(*model.Run) error) error {
	for _, src := range s {
		if err := src.Each(workers, yield); err != nil {
			return err
		}
	}
	return nil
}

// segment is one piece of a source's stream. Ingestion drains a
// source's segments in order, and their concatenated streams equal the
// source's own. A segment that opens a generation starts a new step of
// the lineage the engine's dataset records (see analysis.Dataset.Fold).
type segment struct {
	src   Source
	opens bool
}

// segments decomposes src into the segments ingestion walks, the same
// walk whether or not anyone observes it:
//   - a FilterSource yields its inner source's segments, each wrapped in
//     the same filter, so filter(merge(a, b)) is filter(a), filter(b);
//   - a MergeSource yields each element as one segment opening no
//     generation (merging is composition, not growth);
//   - an AppendSource yields its inner source's segments, then one
//     generation-opening segment per Append batch, so a fresh engine
//     replays the lineage an engine that saw the batches live built;
//   - any other source is one segment.
func segments(src Source) []segment {
	switch s := src.(type) {
	case FilterSource:
		segs := segments(s.Inner)
		for i := range segs {
			segs[i].src = FilterSource{Inner: segs[i].src, Keep: s.Keep, Desc: s.Desc}
		}
		return segs
	case MergeSource:
		segs := make([]segment, len(s))
		for i, part := range s {
			segs[i] = segment{src: part}
		}
		return segs
	case *AppendSource:
		s.mu.RLock()
		appended, ends := s.appended, s.ends
		s.mu.RUnlock()
		segs := segments(s.inner)
		start := 0
		for _, end := range ends {
			segs = append(segs, segment{src: SliceSource(appended[start:end:end]), opens: true})
			start = end
		}
		return segs
	default:
		return []segment{{src: src}}
	}
}

// ParseFilter compiles a corpus-slice expression into a run predicate
// for FilterSource. An expression is a comma-separated list of clauses,
// all of which must hold (AND); within a clause, "|" separates
// alternatives (OR). Supported clauses:
//
//	vendor=AMD|Intel|Other   CPU vendor (case-insensitive)
//	os=Linux|Windows|...     OS family (case-insensitive)
//	year=2020                hardware-availability year
//	year=2018-2022           inclusive year range
//	since=2021               hardware available in or after the year
//
// Years use the hardware-availability date, the axis the paper bins
// every trend by.
func ParseFilter(expr string) (func(*model.Run) bool, error) {
	var preds []func(*model.Run) bool
	for _, clause := range strings.Split(expr, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("core: filter clause %q: want key=value", clause)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		val = strings.TrimSpace(val)
		p, err := filterClause(key, val)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("core: empty filter expression")
	}
	return func(r *model.Run) bool {
		for _, p := range preds {
			if !p(r) {
				return false
			}
		}
		return true
	}, nil
}

// filterClause compiles one key=value clause.
func filterClause(key, val string) (func(*model.Run) bool, error) {
	switch key {
	case "vendor":
		want, err := filterAlternatives(key, val)
		if err != nil {
			return nil, err
		}
		return func(r *model.Run) bool {
			return want[strings.ToLower(r.CPUVendor.String())]
		}, nil
	case "os":
		want, err := filterAlternatives(key, val)
		if err != nil {
			return nil, err
		}
		return func(r *model.Run) bool {
			return want[strings.ToLower(r.OSFamily.String())]
		}, nil
	case "year":
		lo, hi, err := parseYearRange(val)
		if err != nil {
			return nil, err
		}
		return func(r *model.Run) bool {
			y := r.HWAvail.Year
			return y >= lo && y <= hi
		}, nil
	case "since":
		y, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("core: filter since=%q: not a year", val)
		}
		return func(r *model.Run) bool { return r.HWAvail.Year >= y }, nil
	default:
		return nil, fmt.Errorf("core: unknown filter key %q (want vendor, os, year, or since)", key)
	}
}

// filterAlternatives splits "AMD|Intel" into a lower-cased membership
// set.
func filterAlternatives(key, val string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, alt := range strings.Split(val, "|") {
		if alt = strings.TrimSpace(alt); alt != "" {
			want[strings.ToLower(alt)] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("core: filter %s=: empty value", key)
	}
	return want, nil
}

// parseYearRange parses "2020" or "2018-2022" (inclusive).
func parseYearRange(val string) (lo, hi int, err error) {
	from, to, ranged := strings.Cut(val, "-")
	if lo, err = strconv.Atoi(strings.TrimSpace(from)); err != nil {
		return 0, 0, fmt.Errorf("core: filter year=%q: not a year", val)
	}
	if !ranged {
		return lo, lo, nil
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(to)); err != nil || hi < lo {
		return 0, 0, fmt.Errorf("core: filter year=%q: want YEAR or FROM-TO", val)
	}
	return lo, hi, nil
}
