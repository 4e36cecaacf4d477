package synth

import (
	"math"
	"testing"

	"repro/internal/model"
)

func mustGenerate(t *testing.T) []*model.Run {
	t.Helper()
	runs, err := Generate(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestPlanTotals(t *testing.T) {
	var tot struct{ Parsed, Good, Multi, NonServer, NonX86 int }
	for _, p := range DefaultPlan {
		tot.Parsed += p.Parsed
		tot.Good += p.Good()
		tot.Multi += p.Multi
		tot.NonServer += p.NonServer
		tot.NonX86 += p.NonX86
	}
	if tot.Parsed != 960 {
		t.Errorf("Σ parsed = %d, want 960", tot.Parsed)
	}
	if tot.Good != 676 {
		t.Errorf("Σ good = %d, want 676", tot.Good)
	}
	if tot.Multi != 269 {
		t.Errorf("Σ multi = %d, want 269", tot.Multi)
	}
	if tot.NonServer != 6 || tot.NonX86 != 9 {
		t.Errorf("non-server/non-x86 = %d/%d, want 6/9", tot.NonServer, tot.NonX86)
	}
	if DefaultDefects.Total() != 57 {
		t.Errorf("defects = %d, want 57", DefaultDefects.Total())
	}
}

func TestPlanRunRateStatistics(t *testing.T) {
	// S2: 44.2 runs/year over 2005–2023; 15.2 over 2013–2017.
	var total0523, total1317 int
	for _, p := range DefaultPlan {
		if p.Year >= 2005 && p.Year <= 2023 {
			total0523 += p.Parsed
		}
		if p.Year >= 2013 && p.Year <= 2017 {
			total1317 += p.Parsed
		}
	}
	if avg := float64(total0523) / 19; math.Abs(avg-44.2) > 0.3 {
		t.Errorf("2005–2023 rate = %.1f, want ≈44.2", avg)
	}
	if avg := float64(total1317) / 5; math.Abs(avg-15.2) > 0.3 {
		t.Errorf("2013–2017 rate = %.1f, want ≈15.2", avg)
	}
}

func TestGenerateFunnelCounts(t *testing.T) {
	runs := mustGenerate(t)
	if len(runs) != 1017 {
		t.Fatalf("corpus = %d runs, want 1017", len(runs))
	}
	byReason := map[model.RejectReason]int{}
	for _, r := range runs {
		byReason[model.Classify(r)]++
	}
	want := map[model.RejectReason]int{
		model.RejectNone:                   676,
		model.RejectNotAccepted:            40,
		model.RejectAmbiguousDate:          3,
		model.RejectImplausibleDate:        4,
		model.RejectAmbiguousCPUName:       3,
		model.RejectMissingNodeCount:       1,
		model.RejectInconsistentCoreThread: 5,
		model.RejectImplausibleCoreThread:  1,
		model.RejectNonX86Vendor:           9,
		model.RejectNonServerCPU:           6,
		model.RejectMultiNodeOrBigSMP:      269,
	}
	for reason, n := range want {
		if byReason[reason] != n {
			t.Errorf("%v: %d runs, want %d", reason, byReason[reason], n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t)
	b := mustGenerate(t)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].CPUName != b[i].CPUName ||
			a[i].HWAvail != b[i].HWAvail ||
			a[i].Points[0].AvgPower != b[i].Points[0].AvgPower {
			t.Fatalf("run %d differs between generations", i)
		}
	}
	// A different seed must actually change the corpus.
	opt := DefaultOptions()
	opt.Seed = 99
	c, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Points[0].AvgPower != c[i].Points[0].AvgPower {
			same = false
			break
		}
	}
	if same {
		t.Error("seed has no effect")
	}
}

func TestGeneratedRunsWellFormed(t *testing.T) {
	runs := mustGenerate(t)
	ids := map[string]bool{}
	for _, r := range runs {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		ids[r.ID] = true
		if len(r.Points) != 11 {
			t.Fatalf("%s: %d points", r.ID, len(r.Points))
		}
		// Power must rise with load (with a little noise tolerance).
		for i := 1; i < 10; i++ {
			hi, lo := r.Points[i-1], r.Points[i]
			if lo.AvgPower > hi.AvgPower*1.05 {
				t.Errorf("%s: power not increasing: %d%%=%.1f vs %d%%=%.1f",
					r.ID, lo.TargetLoad, lo.AvgPower, hi.TargetLoad, hi.AvgPower)
			}
		}
		// Idle below 10 % load.
		if idle, _ := r.Point(0); idle.AvgPower >= r.Points[9].AvgPower {
			t.Errorf("%s: idle %.1f ≥ 10%% load %.1f", r.ID,
				idle.AvgPower, r.Points[9].AvgPower)
		}
		// Ops roughly proportional to load.
		full := r.Points[0].ActualOps
		if full <= 0 {
			t.Fatalf("%s: no full-load throughput", r.ID)
		}
		half, _ := r.Point(50)
		if frac := half.ActualOps / full; frac < 0.45 || frac > 0.55 {
			t.Errorf("%s: 50%% ops fraction = %.3f", r.ID, frac)
		}
	}
}

func TestVendorShares(t *testing.T) {
	runs := mustGenerate(t)
	var preAMD, pre, postAMD, post float64
	for _, r := range runs {
		if model.Classify(r).IsParseStage() {
			continue // share statistics are over the 960 parsed runs
		}
		if r.CPUVendor != model.VendorIntel && r.CPUVendor != model.VendorAMD {
			continue
		}
		if r.HWAvail.Year < 2018 {
			pre++
			if r.CPUVendor == model.VendorAMD {
				preAMD++
			}
		} else {
			post++
			if r.CPUVendor == model.VendorAMD {
				postAMD++
			}
		}
	}
	if share := preAMD / pre; math.Abs(share-0.130) > 0.02 {
		t.Errorf("pre-2018 AMD share = %.3f, want ≈0.130", share)
	}
	if share := postAMD / post; math.Abs(share-0.313) > 0.03 {
		t.Errorf("post-2018 AMD share = %.3f, want ≈0.313", share)
	}
}

func TestOSShares(t *testing.T) {
	runs := mustGenerate(t)
	var preLinux, pre, postLinux, post float64
	for _, r := range runs {
		if model.Classify(r).IsParseStage() {
			continue
		}
		if r.HWAvail.Year < 2018 {
			pre++
			if r.OSFamily == model.OSLinux {
				preLinux++
			}
		} else {
			post++
			if r.OSFamily == model.OSLinux {
				postLinux++
			}
		}
	}
	if share := preLinux / pre; math.Abs(share-0.022) > 0.012 {
		t.Errorf("pre-2018 Linux share = %.3f, want ≈0.022", share)
	}
	if share := postLinux / post; math.Abs(share-0.363) > 0.04 {
		t.Errorf("post-2018 Linux share = %.3f, want ≈0.363", share)
	}
	// Pre-2018 Windows dominance (>90 %, paper says >97 % up to 2017).
	var preWin float64
	for _, r := range runs {
		if model.Classify(r).IsParseStage() || r.HWAvail.Year >= 2018 {
			continue
		}
		if r.OSFamily == model.OSWindows {
			preWin++
		}
	}
	if share := preWin / pre; share < 0.90 {
		t.Errorf("pre-2018 Windows share = %.3f, want > 0.90", share)
	}
}

func TestGoodRunsTopologyMatchesPlan(t *testing.T) {
	runs := mustGenerate(t)
	var good, twoSock int
	for _, r := range runs {
		if model.Classify(r) != model.RejectNone {
			continue
		}
		good++
		if r.Nodes != 1 || r.SocketsPerNode > 2 {
			t.Fatalf("%s: good run with %d nodes × %d sockets", r.ID, r.Nodes, r.SocketsPerNode)
		}
		if r.SocketsPerNode == 2 {
			twoSock++
		}
	}
	if good != 676 {
		t.Fatalf("good runs = %d", good)
	}
	if share := float64(twoSock) / float64(good); share < 0.6 || share > 0.85 {
		t.Errorf("two-socket share = %.3f, want ≈0.72", share)
	}
}

func TestMultiRunsShape(t *testing.T) {
	runs := mustGenerate(t)
	sawMultiNode, sawBigSMP := false, false
	for _, r := range runs {
		if model.Classify(r) != model.RejectMultiNodeOrBigSMP {
			continue
		}
		if r.Nodes > 1 {
			sawMultiNode = true
		}
		if r.SocketsPerNode > 2 {
			sawBigSMP = true
		}
		// Internally consistent topology regardless.
		if r.TotalCores != r.Nodes*r.SocketsPerNode*r.CoresPerSocket {
			t.Fatalf("%s: inconsistent multi topology", r.ID)
		}
	}
	if !sawMultiNode || !sawBigSMP {
		t.Errorf("filtered population should include both multi-node (%v) and >2-socket (%v)",
			sawMultiNode, sawBigSMP)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Generate(Options{Seed: 1}); err == nil {
		t.Error("empty plan should error")
	}
	bad := Options{Seed: 1, Plan: []YearPlan{{Year: 2010, Parsed: 2, Multi: 5}}}
	if _, err := Generate(bad); err == nil {
		t.Error("over-allocated year should error")
	}
}
