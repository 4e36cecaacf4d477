package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestCSVDigests pins specparse's CSV bytes for the default synthetic
// corpus at every stage of the funnel: same 26 columns in the same
// order, shortest round-trip floats, NaN as an empty cell.
func TestCSVDigests(t *testing.T) {
	ds, err := core.New().Dataset()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stage string
		runs  []*model.Run
		rows  int
		want  string
	}{
		{"raw", ds.Raw, 1017, "42f095df5a22a61269132b4220735a022ae353a6a8f5ce765fcea06a67011eb6"},
		{"parsed", ds.Parsed, 960, "49005053537a0105f0f4a1dbd36f02d8fcc4d087eed6a22214fa94e26f157480"},
		{"comparable", ds.Comparable, 676, "5cf68bbe69aca4578f64953dc4d59935ed1707932e9e7e109788d9fa05b640bf"},
	} {
		if len(tc.runs) != tc.rows {
			t.Fatalf("%s: %d runs, want %d", tc.stage, len(tc.runs), tc.rows)
		}
		var buf bytes.Buffer
		if err := writeCSV(&buf, tc.runs); err != nil {
			t.Fatalf("%s: %v", tc.stage, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.stage, got, tc.want)
		}
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestCSVWriteErrorNamesPosition(t *testing.T) {
	ds, err := core.New().Dataset()
	if err != nil {
		t.Fatal(err)
	}
	err = writeCSV(&failAfter{}, ds.Comparable)
	if err == nil || !strings.Contains(err.Error(), "header") || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("failing header write: got %v", err)
	}
	err = writeCSV(&failAfter{n: 16 << 10}, ds.Comparable)
	if err == nil || !strings.Contains(err.Error(), "row ") || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("failing row write: got %v", err)
	}
}
