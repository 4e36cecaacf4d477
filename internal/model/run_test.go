package model

import (
	"math"
	"testing"
	"time"
)

// testRun builds a plausible dual-socket run with a linear-ish power
// curve: P(load) = idle + (full-idle)*load/100 with an idle-optimization
// dip at the 0 % point.
func testRun() *Run {
	r := &Run{
		ID:             "power_ssj2008-20230801-00001",
		Accepted:       true,
		TestDate:       YM(2023, time.July),
		SubmissionDate: YM(2023, time.August),
		HWAvail:        YM(2023, time.August),
		SWAvail:        YM(2023, time.June),
		SystemVendor:   "Lenovo",
		SystemName:     "ThinkSystem SR645 V3",
		CPUName:        "AMD EPYC 9754",
		CPUVendor:      VendorAMD,
		CPUClass:       ClassEPYC,
		Nodes:          1,
		SocketsPerNode: 2,
		CoresPerSocket: 128,
		ThreadsPerCore: 2,
		TotalCores:     256,
		TotalThreads:   512,
		NominalGHz:     2.25,
		TDPWatts:       360,
		MemGB:          384,
		PSUWatts:       1100,
		OSName:         "Windows Server 2022 Datacenter",
		OSFamily:       OSWindows,
		JVM:            "Oracle Java HotSpot 64-Bit Server VM",
	}
	maxOps := 4.0e6
	full, idle := 720.0, 120.0
	for _, load := range StandardLoads() {
		f := float64(load) / 100
		p := LoadPoint{
			TargetLoad: load,
			ActualOps:  maxOps * f,
			AvgPower:   idle + (full-idle)*f,
		}
		if load == 0 {
			p.AvgPower = 90 // idle-specific optimization below the linear trend
		}
		r.Points = append(r.Points, p)
	}
	return r
}

func TestPointLookup(t *testing.T) {
	r := testRun()
	if _, ok := r.Point(100); !ok {
		t.Fatal("missing 100% point")
	}
	if _, ok := r.Point(55); ok {
		t.Fatal("unexpected 55% point")
	}
	if len(r.Points) != 11 {
		t.Fatalf("want 11 standard points, got %d", len(r.Points))
	}
}

func TestDerivedPowerMetrics(t *testing.T) {
	r := testRun()
	if got := r.FullLoadPower(); got != 720 {
		t.Errorf("FullLoadPower = %v, want 720", got)
	}
	if got := r.IdlePower(); got != 90 {
		t.Errorf("IdlePower = %v, want 90", got)
	}
	wantFrac := 90.0 / 720.0
	if got := r.IdleFraction(); math.Abs(got-wantFrac) > 1e-12 {
		t.Errorf("IdleFraction = %v, want %v", got, wantFrac)
	}
	if got := r.PowerPerSocketAt(100); got != 360 {
		t.Errorf("PowerPerSocketAt(100) = %v, want 360", got)
	}
	if got := r.TotalSockets(); got != 2 {
		t.Errorf("TotalSockets = %d, want 2", got)
	}
}

func TestOverallOpsPerWatt(t *testing.T) {
	r := testRun()
	var ops, pw float64
	for _, p := range r.Points {
		ops += p.ActualOps
		pw += p.AvgPower
	}
	want := ops / pw
	if got := r.OverallOpsPerWatt(); math.Abs(got-want) > 1e-9 {
		t.Errorf("OverallOpsPerWatt = %v, want %v", got, want)
	}
}

func TestRelativeEfficiency(t *testing.T) {
	r := testRun()
	if got := r.RelativeEfficiencyAt(100); math.Abs(got-1) > 1e-12 {
		t.Errorf("RelativeEfficiencyAt(100) = %v, want 1", got)
	}
	// With a positive idle intercept the partial-load efficiency is below
	// full-load efficiency.
	if got := r.RelativeEfficiencyAt(50); got >= 1 {
		t.Errorf("RelativeEfficiencyAt(50) = %v, want < 1", got)
	}
}

func TestExtrapolatedIdle(t *testing.T) {
	r := testRun()
	// Power curve is linear with intercept 120, so extrapolation from
	// 10 % and 20 % must recover 120 exactly.
	if got := r.ExtrapolatedIdlePower(); math.Abs(got-120) > 1e-9 {
		t.Errorf("ExtrapolatedIdlePower = %v, want 120", got)
	}
	want := 120.0 / 90.0
	if got := r.ExtrapolatedIdleQuotient(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExtrapolatedIdleQuotient = %v, want %v", got, want)
	}
}

func TestNaNOnMissingPoints(t *testing.T) {
	r := &Run{}
	for _, got := range []float64{
		r.FullLoadPower(), r.IdlePower(), r.IdleFraction(),
		r.ExtrapolatedIdlePower(), r.ExtrapolatedIdleQuotient(),
		r.EfficiencyAt(50), r.RelativeEfficiencyAt(50),
		r.PowerPerSocketAt(100), r.OverallOpsPerWatt(),
	} {
		if !math.IsNaN(got) {
			t.Errorf("want NaN on empty run, got %v", got)
		}
	}
}

func TestSortPoints(t *testing.T) {
	r := testRun()
	// Shuffle deterministically.
	r.Points[0], r.Points[5] = r.Points[5], r.Points[0]
	r.Points[2], r.Points[10] = r.Points[10], r.Points[2]
	r.SortPoints()
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i-1].TargetLoad <= r.Points[i].TargetLoad {
			t.Fatalf("points not in descending order at %d", i)
		}
	}
	if r.Points[len(r.Points)-1].TargetLoad != 0 {
		t.Fatal("active idle must sort last")
	}
}

func TestLoadPointOpsPerWatt(t *testing.T) {
	lp := LoadPoint{TargetLoad: 50, ActualOps: 1000, AvgPower: 200}
	if got := lp.OpsPerWatt(); got != 5 {
		t.Errorf("OpsPerWatt = %v, want 5", got)
	}
	zero := LoadPoint{TargetLoad: 0, ActualOps: 0, AvgPower: 0}
	if got := zero.OpsPerWatt(); got != 0 {
		t.Errorf("OpsPerWatt on unpowered = %v, want 0", got)
	}
}
