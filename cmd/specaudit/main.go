// Command specaudit inspects the hash-chained audit logs specserve
// writes with -audit.
//
//	specaudit verify audit.log    check every link and every identity;
//	                              exit 1 naming the failing records
//	specaudit head audit.log      print the chain head hash — store it
//	                              externally as a truncation anchor
//
// head prints "<records> <hash>", plus the head record's trace id as a
// third column when the log carries one (logs written before trace
// support, or with tracing disabled, print the original two columns
// unchanged).
//
// verify proves internal consistency: sequential positions, each
// record's prev matching its predecessor's hash, each hash matching the
// recomputed record contents. Any mutated byte, inserted, removed, or
// reordered record, or torn final line fails with the record index. A
// log truncated cleanly at a record boundary still verifies — compare
// the reported head hash against an externally stored anchor (the head
// printed by an earlier run) to detect that case.
//
// verify then checks identity/body consistency: two records with equal
// (fingerprint, analysis, params, filter) must carry equal result
// digests, because a served body is a pure function of that identity
// and the server's strong ETags are derived from it. A conflicting
// pair fails naming both record indices.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/obs"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  specaudit verify <file>   verify the hash chain and identity consistency
  specaudit head <file>     print record count and head hash
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("specaudit: ")
	if len(os.Args) != 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	switch cmd {
	case "verify":
		line, err := verify(f, path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(line)
	case "head":
		res, err := obs.VerifyChain(f)
		if err != nil {
			log.Fatalf("FAIL %s: %v", path, err)
		}
		fmt.Println(headLine(res))
	default:
		usage()
	}
}

// verify runs both checks on the log in f, named path in messages, and
// returns the OK line, or the FAIL message as an error.
func verify(f io.ReadSeeker, path string) (string, error) {
	res, err := obs.VerifyChain(f)
	if err != nil {
		var ce *obs.ChainError
		if errors.As(err, &ce) {
			return "", fmt.Errorf("FAIL %s: record %d: %s", path, ce.Index, ce.Reason)
		}
		return "", fmt.Errorf("FAIL %s: %v", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", fmt.Errorf("FAIL %s: %v", path, err)
	}
	if err := obs.VerifyConsistency(f); err != nil {
		return "", fmt.Errorf("FAIL %s: %v", path, err)
	}
	line := fmt.Sprintf("OK %s: %d records", path, res.Records)
	if res.Records > 0 {
		line += ", head " + res.HeadHash
	}
	return line, nil
}

// headLine renders the head command's output line. The trace id column
// appears only when the head record has one, so anchors stored from
// pre-trace logs remain byte-identical.
func headLine(res obs.VerifyResult) string {
	line := fmt.Sprintf("%d %s", res.Records, res.HeadHash)
	if res.HeadTraceID != "" {
		line += " " + res.HeadTraceID
	}
	return line
}
