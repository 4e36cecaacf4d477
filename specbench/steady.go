package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness helper reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the benchmark n times in subprocesses, on seeds
// seed … seed+n-1, and prints each metric's median and quartile spread
// (as a share of the median) against its bound from BENCHMARK.json.
// A spread at or above a third of its bound is flagged.
func steadiness(name string, seed int64, seconds, traced, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("read BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	var failed []int64
	for i := range n {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: last line is not a result: %w", s, err)
		}
		var line bytes.Buffer
		fmt.Fprintf(&line, "seed %d: correct %v ops %d failed %d", s, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for m := range res.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			values[m] = append(values[m], res.Metrics[m].Value)
			if _, ok := bounds[m]; ok || traced == 1 {
				fmt.Fprintf(&line, " %s=%.4g", m, res.Metrics[m].Value)
			}
		}
		fmt.Println(line.String())
		failed = append(failed, res.Failed)
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %14s %8s %8s\n", "metric", "median", "spread", "bound")
	for _, m := range names {
		med, spread := quartileSpread(values[m])
		bound, ok := bounds[m]
		flag := ""
		switch {
		case !ok:
			flag = "(no bound)"
		case spread >= bound/3:
			flag = "OVER A THIRD OF BOUND"
		}
		fmt.Printf("%-32s %14.4f %7.1f%% %7.1f%% %s\n", m, med, spread*100, bound*100, flag)
	}
	fmt.Printf("failed ops per run: %v\n", failed)
	return nil
}
