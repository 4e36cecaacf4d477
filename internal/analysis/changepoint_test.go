package analysis

import (
	"testing"

	"repro/internal/model"
)

func TestIdleFractionChangepoint(t *testing.T) {
	ds := dataset(t)
	cf, err := IdleFractionChangepoint(ds.Comparable, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !cf.Significant {
		t.Errorf("idle history has no significant changepoint: %+v", cf)
	}
	// The V-shaped fall/rise around the 2017 minimum puts the Pettitt
	// break somewhere in the steep-descent-to-plateau transition.
	if cf.Year < 2008 || cf.Year > 2018 {
		t.Errorf("changepoint year %d outside the plausible window", cf.Year)
	}
}

func TestMetricChangepointErrors(t *testing.T) {
	ds := dataset(t)
	if _, err := MetricChangepoint(ds.Comparable[:4], "x",
		(*model.Run).IdleFraction, 1, 0.05); err == nil {
		t.Error("too few yearly bins should error")
	}
}

func TestYearlyMeansByVendor(t *testing.T) {
	ds := dataset(t)
	byVendor := func(v model.CPUVendor) []YearlyStat {
		var sub []*model.Run
		for _, r := range ds.Comparable {
			if r.CPUVendor == v {
				sub = append(sub, r)
			}
		}
		return YearlyMeans(sub, (*model.Run).OverallOpsPerWatt)
	}
	amd, intel := byVendor(model.VendorAMD), byVendor(model.VendorIntel)
	if len(amd) == 0 || len(intel) == 0 {
		t.Fatal("empty vendor series")
	}
	// No AMD bins in the 2013–2016 gap.
	for _, ys := range amd {
		if ys.Year >= 2013 && ys.Year <= 2016 {
			t.Errorf("AMD bin in the EPYC gap: %d", ys.Year)
		}
	}
	// Recent AMD beats recent Intel (Figure 3).
	last := func(series []YearlyStat) YearlyStat { return series[len(series)-1] }
	if last(amd).Mean <= last(intel).Mean {
		t.Errorf("recent AMD %v should exceed Intel %v",
			last(amd).Mean, last(intel).Mean)
	}
	// Vendor bins partition the pooled bins.
	pooled := YearlyMeans(ds.Comparable, (*model.Run).OverallOpsPerWatt)
	total := 0
	for _, ys := range pooled {
		total += ys.N
	}
	vtotal := 0
	for _, ys := range append(append([]YearlyStat(nil), amd...), intel...) {
		vtotal += ys.N
	}
	if total != vtotal {
		t.Errorf("vendor bins cover %d runs, pooled %d", vtotal, total)
	}
}

func TestMacOSPresence(t *testing.T) {
	ds := dataset(t)
	rows := Fig1Shares(ds.Parsed)
	sawMac := false
	for _, row := range rows {
		if row.OS["macOS"] > 0 {
			sawMac = true
			if row.Year > 2010 {
				t.Errorf("macOS share in %d; Xserve era only", row.Year)
			}
		}
	}
	if !sawMac {
		t.Error("Figure 1 legend includes macOS but the corpus has none")
	}
}
