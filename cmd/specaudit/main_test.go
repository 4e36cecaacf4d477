package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeChain builds a real chained log with n records, each carrying
// traceID (empty for pre-trace-era logs), and returns the verify
// result.
func writeChain(t *testing.T, n int, traceID string) obs.VerifyResult {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := obs.OpenAuditLog(path, obs.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Append(obs.Entry{
			Time:         time.Unix(int64(1700000000+i), 0).UTC(),
			Fingerprint:  "fp",
			Analysis:     "clusters",
			Params:       "k=5",
			ResultDigest: "sha256:abc",
			TraceID:      traceID,
		})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := obs.VerifyChain(f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHeadLineOldFormat pins backward compatibility: a log whose
// records carry no trace ids prints exactly the two-column line earlier
// specaudit versions printed, so externally stored anchors still
// compare byte-for-byte.
func TestHeadLineOldFormat(t *testing.T) {
	res := writeChain(t, 3, "")
	got := headLine(res)
	want := "3 " + res.HeadHash
	if got != want {
		t.Fatalf("headLine = %q, want %q", got, want)
	}
}

// TestHeadLineTraceColumn: a traced log appends the head record's trace
// id as a third column.
func TestHeadLineTraceColumn(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	res := writeChain(t, 2, tid)
	got := headLine(res)
	want := "2 " + res.HeadHash + " " + tid
	if got != want {
		t.Fatalf("headLine = %q, want %q", got, want)
	}
}

// TestHeadTraceIDFollowsHead: the column reflects the head record, not
// any earlier one — a log that stops carrying trace ids reverts to the
// two-column form.
func TestHeadTraceIDFollowsHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := obs.OpenAuditLog(path, obs.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(obs.Entry{Time: time.Unix(1700000000, 0).UTC(), Analysis: "a", TraceID: "deadbeefdeadbeefdeadbeefdeadbeef"})
	l.Append(obs.Entry{Time: time.Unix(1700000001, 0).UTC(), Analysis: "b"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := obs.VerifyChain(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeadTraceID != "" {
		t.Fatalf("head trace id %q, want empty (head record is untraced)", res.HeadTraceID)
	}
	if got, want := headLine(res), "2 "+res.HeadHash; got != want {
		t.Fatalf("headLine = %q, want %q", got, want)
	}
}

// TestVerifyIdentityConsistency: verify passes a log whose repeated
// identities served equal bytes, and fails one holding a single
// identity/body conflict, naming both records, even though its chain
// links are intact.
func TestVerifyIdentityConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := obs.OpenAuditLog(path, obs.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(i int, params, digest string) obs.Entry {
		return obs.Entry{Time: time.Unix(int64(1700000000+i), 0).UTC(),
			Fingerprint: "fp", Analysis: "clusters", Params: params, ResultDigest: digest}
	}
	l.Append(entry(0, "k=3", "sha256:aaa"))
	l.Append(entry(1, "algo=minibatch,k=3", "sha256:bbb"))
	l.Append(entry(2, "k=3", "sha256:aaa"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check := func() (string, error) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return verify(f, "audit.log")
	}
	line, err := check()
	if err != nil || !strings.HasPrefix(line, "OK audit.log: 3 records") {
		t.Fatalf("consistent log: line %q, err %v", line, err)
	}

	if l, err = obs.OpenAuditLog(path, obs.AuditOptions{}); err != nil {
		t.Fatal(err)
	}
	l.Append(entry(3, "algo=minibatch,k=3", "sha256:ccc"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = check()
	if err == nil || !strings.Contains(err.Error(), "records 1 and 3") {
		t.Fatalf("conflicting log: err = %v, want a FAIL naming records 1 and 3", err)
	}
}
