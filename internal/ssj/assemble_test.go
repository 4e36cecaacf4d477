package ssj

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/power"
)

func TestAssembleRun(t *testing.T) {
	spec, err := catalog.Find("EPYC 9554")
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig()
	eng, err := NewEngine(cfg, testMeterM())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	run, err := AssembleRun(spec, power.SystemConfig{Sockets: 2, MemGB: 384, PSUWatts: 1100},
		RunMeta{
			TestDate:     model.YM(2024, time.May),
			SystemVendor: "test", SystemName: "rig",
			OSName: "Ubuntu 22.04 LTS", JVM: "engine",
		}, res)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Classify(run); got != model.RejectNone {
		t.Fatalf("assembled run classified %v", got)
	}
	if run.TotalThreads != 2*spec.Cores*spec.ThreadsPerCore {
		t.Errorf("threads = %d", run.TotalThreads)
	}
	if run.OSFamily != model.OSLinux {
		t.Errorf("os family = %v", run.OSFamily)
	}
	if run.ID == "" || run.SubmissionDate.IsZero() {
		t.Error("defaults not filled")
	}
	// Points are copied, not aliased.
	run.Points[0].AvgPower = -1
	if res.Points[0].AvgPower == -1 {
		t.Error("points aliased into the result")
	}
}

func TestAssembleRunErrors(t *testing.T) {
	spec, err := catalog.Find("EPYC 9554")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleRun(spec, power.SystemConfig{Sockets: 2, MemGB: 64},
		RunMeta{}, nil); err == nil {
		t.Error("nil result should error")
	}
	if _, err := AssembleRun(spec, power.SystemConfig{Sockets: 9, MemGB: 64},
		RunMeta{}, &Result{Points: []model.LoadPoint{{TargetLoad: 100}}}); err == nil {
		t.Error("invalid config should error")
	}
}

func testMeterM() *SimMeter {
	return NewSimMeter(testCurve(), 0, 11)
}
