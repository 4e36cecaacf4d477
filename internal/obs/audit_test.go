package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/evlog"
)

func testEntry(i int) Entry {
	return Entry{
		Time:         time.Date(2026, 8, 7, 12, 0, i%60, i, time.UTC),
		Fingerprint:  "fp-corpus",
		Analysis:     "fig3",
		Params:       fmt.Sprintf("k=%d", i),
		Filter:       "vendor=amd",
		ResultDigest: ResultDigest([]byte(fmt.Sprintf("body-%d", i))),
	}
}

func openTestLog(t *testing.T, path string, opts AuditOptions) *AuditLog {
	t.Helper()
	l, err := OpenAuditLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func verifyFile(t *testing.T, path string) (VerifyResult, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return VerifyChain(f)
}

func TestAuditAppendVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 10; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); got != 10 {
		t.Errorf("Records() = %d, want 10", got)
	}
	res, err := verifyFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 10 || res.HeadHash == "" {
		t.Errorf("verify = %+v, want 10 records with a head hash", res)
	}
}

// TestAuditConcurrentHammer drives the batcher from many goroutines at
// once, then closes (the graceful-shutdown drain): the chain must
// verify and hold every appended record — batching may reorder relative
// wall-clock, but never lose or fork.
func TestAuditConcurrentHammer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	// Tiny flush threshold exercises many batch boundaries.
	l := openTestLog(t, path, AuditOptions{FlushRecords: 7, FlushInterval: 5 * time.Millisecond})
	const goroutines, per = 16, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(testEntry(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := verifyFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != goroutines*per {
		t.Errorf("chain holds %d records, want %d — records lost in the drain",
			res.Records, goroutines*per)
	}
}

// TestAuditAppendAfterCloseDropped: a shutdown race appends nothing and
// does not panic.
func TestAuditAppendAfterCloseDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	l.Append(testEntry(0))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.Append(testEntry(1)) // must not panic
	if err := l.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	res, err := verifyFile(t, path)
	if err != nil || res.Records != 1 {
		t.Errorf("verify = %+v, %v; want exactly the pre-close record", res, err)
	}
}

// TestAuditCorruptionDetected flips a single byte in a middle record's
// result digest: verification must fail and name that record's index.
func TestAuditCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 9; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 9 {
		t.Fatalf("log has %d lines, want 9", len(lines))
	}
	const victim = 4
	var rec Record
	if err := json.Unmarshal(lines[victim], &rec); err != nil {
		t.Fatal(err)
	}
	// Flip one hex digit of the stored digest (valid JSON, wrong hash).
	d := []byte(rec.ResultDigest)
	if d[0] == 'a' {
		d[0] = 'b'
	} else {
		d[0] = 'a'
	}
	rec.ResultDigest = string(d)
	mutated, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[victim] = mutated
	out := append(bytes.Join(lines, []byte("\n")), '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	_, verr := verifyFile(t, path)
	var ce *ChainError
	if !errors.As(verr, &ce) {
		t.Fatalf("verify error = %v, want *ChainError", verr)
	}
	if ce.Index != victim {
		t.Errorf("broken at index %d, want %d", ce.Index, victim)
	}

	// A tampered log refuses to reopen for appending.
	if _, err := OpenAuditLog(path, AuditOptions{}); err == nil {
		t.Error("OpenAuditLog accepted a tampered log")
	}
}

// TestAuditSingleByteMutationsAllDetected walks every byte of a short
// log, flips it, and asserts the chain never verifies — the acceptance
// criterion stated literally.
func TestAuditSingleByteMutationsAllDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 3; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mutated := bytes.Clone(raw)
		mutated[i] ^= 0x01
		if _, err := VerifyChain(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flipping byte %d (%q -> %q) went undetected",
				i, raw[i], mutated[i])
		}
	}
}

// TestAuditRecordRemovalDetected: dropping a middle record breaks the
// prev linkage at the splice point.
func TestAuditRecordRemovalDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 5; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	spliced := append(append([]byte{}, bytes.Join(lines[:2], nil)...),
		bytes.Join(lines[3:], nil)...)
	_, err := VerifyChain(bytes.NewReader(spliced))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Errorf("removal: err = %v, want ChainError at index 2", err)
	}
}

// TestAuditTornTailDetected: a final line cut mid-record (a crash
// without flush completing the write) fails verification at its index.
func TestAuditTornTailDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 3; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	torn := raw[:len(raw)-10]
	_, err := VerifyChain(bytes.NewReader(torn))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Errorf("torn tail: err = %v, want ChainError at index 2", err)
	}
}

// TestAuditReopenContinuesChain: a restarted server resumes the chain
// where it left off, and the whole file still verifies as one chain.
func TestAuditReopenContinuesChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 4; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openTestLog(t, path, AuditOptions{})
	for i := 4; i < 7; i++ {
		l2.Append(testEntry(i))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := verifyFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 7 {
		t.Errorf("reopened chain holds %d records, want 7", res.Records)
	}
}

func TestVerifyChainEmpty(t *testing.T) {
	res, err := VerifyChain(strings.NewReader(""))
	if err != nil || res.Records != 0 || res.HeadHash != "" {
		t.Errorf("empty log: %+v, %v", res, err)
	}
}

// BenchmarkAuditAppend measures the hot-path cost of one audit append:
// an entry handed to the batching writer (channel send), no file I/O on
// the caller.
func BenchmarkAuditAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "audit.log")
	l, err := OpenAuditLog(path, AuditOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := testEntry(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(e)
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestAuditFlushStats: flushes are counted by trigger, flushed records
// sum to the appends, queue depth drains to zero, and the Events logger
// sees one audit_flush line per counted flush.
func TestAuditFlushStats(t *testing.T) {
	var events bytes.Buffer
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{
		FlushRecords:  4,
		FlushInterval: time.Hour, // never fires: triggers under test are batch and close
		Events:        evlog.New(&events, evlog.Options{}),
	})
	for i := 0; i < 10; i++ {
		l.Append(testEntry(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.FlushStats()
	// 10 appends at batch size 4: two batch flushes, one close flush for
	// the remaining 2.
	if st.Batch != 2 || st.Interval != 0 || st.Close != 1 {
		t.Errorf("FlushStats = %+v, want 2 batch + 1 close", st)
	}
	if st.FlushedRecords != 10 {
		t.Errorf("FlushedRecords = %d, want 10", st.FlushedRecords)
	}
	if d := l.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth after Close = %d, want 0", d)
	}
	lines := strings.Count(events.String(), "event=audit_flush")
	if lines != 3 {
		t.Errorf("%d audit_flush events, want 3:\n%s", lines, events.String())
	}
	for _, want := range []string{`reason=batch`, `reason=close`, `records=4`, `records=2`} {
		if !strings.Contains(events.String(), want) {
			t.Errorf("events missing %q:\n%s", want, events.String())
		}
	}
}

// TestVerifyConsistency: records sharing (fingerprint, analysis,
// params, filter) must share a result digest. Repeats with equal
// digests and distinct identities pass; one conflicting pair fails
// naming both record positions, whatever lies between them.
func TestVerifyConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTestLog(t, path, AuditOptions{})
	for i := 0; i < 4; i++ {
		l.Append(testEntry(i))
	}
	l.Append(testEntry(1)) // same identity, same bytes: consistent
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := VerifyConsistency(f); err != nil {
		t.Fatalf("consistent log: %v", err)
	}

	conflict := testEntry(2)
	conflict.ResultDigest = ResultDigest([]byte("other body"))
	l = openTestLog(t, path, AuditOptions{})
	l.Append(conflict)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyFile(t, path); err != nil {
		t.Fatalf("chain of the conflicting log: %v", err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var ce *ConsistencyError
	if err := VerifyConsistency(g); !errors.As(err, &ce) {
		t.Fatalf("conflicting log: err = %v, want *ConsistencyError", err)
	}
	if ce.First != 2 || ce.Second != 5 || ce.Params != "k=2" {
		t.Errorf("conflict = records %d and %d params %q, want 2 and 5 params k=2", ce.First, ce.Second, ce.Params)
	}
}
