package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// TestReportJSONDigest pins the full JSON report — the bytes
// `specanalyze -json` writes — for three synthetic corpora at one
// worker and at GOMAXPROCS. Kernel rewrites (trend statistics,
// silhouette, clustering) must leave every served byte as it was.
func TestReportJSONDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
		want string
	}{
		{"default", func(*Engine) {}, "38dc95d0081a2ef673df41197e8081ea4bfa7c3fc4a75bbf0a02dab7c44f3e8e"},
		{"synth:3", WithSeed(3), "64cd1afbdcab9c8cbd6ec12fe70fa529c0f831694ec8d1df9a12979ed3634092"},
		{"synth:7", WithSeed(7), "204bf8bf32322dc5b12bb84e4e3f3b4b87449ca32de1023c354e634b3d43612a"},
	} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				h := sha256.New()
				if err := New(tc.opt, WithWorkers(workers)).WriteJSON(h); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
					t.Errorf("sha256 %s, want %s", got, tc.want)
				}
			})
		}
	}
}
