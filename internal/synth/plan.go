package synth

// YearPlan fixes the composition of one hardware-availability year in
// the 960-run parsed corpus.
type YearPlan struct {
	Year int
	// Parsed is the number of runs whose hardware availability falls in
	// this year and that survive parse-consistency checking.
	Parsed int
	// AMDShare is the fraction of x86 runs using AMD processors.
	AMDShare float64
	// LinuxShare is the fraction of runs on Linux (the rest is Windows
	// except for a sliver of Others early on).
	LinuxShare float64
	// Multi is how many of Parsed are multi-node or >2-socket systems
	// (filtered by the paper's comparability stage).
	Multi int
	// NonServer is how many use desktop-class x86 parts.
	NonServer int
	// NonX86 is how many use neither Intel nor AMD processors.
	NonX86 int
	// TwoSocketShare is the fraction of the remaining single-node runs
	// with two sockets (the rest have one).
	TwoSocketShare float64
}

// Good returns the number of runs in this year that survive all filters.
func (p YearPlan) Good() int {
	return p.Parsed - p.Multi - p.NonServer - p.NonX86
}

// DefaultPlan is calibrated to the paper's corpus:
//
//   - Σ Parsed = 960; the 2005–2023 portion averages 44.2 runs/year and
//     2013–2017 averages 15.2 (Section II).
//   - Σ Multi = 269, Σ NonServer = 6, Σ NonX86 = 9, so the comparability
//     stage removes exactly 284 runs, leaving 676.
//   - AMD shares aggregate to ≈13.0 % before 2018 and ≈31.3 % after;
//     Linux shares to ≈2.2 % and ≈36.3 % (Figure 1 and Section II).
var DefaultPlan = []YearPlan{
	{Year: 2005, Parsed: 8, AMDShare: 0.12, LinuxShare: 0.02, Multi: 2, TwoSocketShare: 0.75},
	{Year: 2006, Parsed: 36, AMDShare: 0.15, LinuxShare: 0.02, Multi: 12, NonServer: 1, TwoSocketShare: 0.75},
	{Year: 2007, Parsed: 64, AMDShare: 0.12, LinuxShare: 0.02, Multi: 22, NonServer: 1, TwoSocketShare: 0.72},
	{Year: 2008, Parsed: 72, AMDShare: 0.17, LinuxShare: 0.02, Multi: 25, NonX86: 1, TwoSocketShare: 0.72},
	{Year: 2009, Parsed: 80, AMDShare: 0.14, LinuxShare: 0.02, Multi: 28, NonX86: 1, TwoSocketShare: 0.70},
	{Year: 2010, Parsed: 78, AMDShare: 0.20, LinuxShare: 0.02, Multi: 27, NonServer: 1, NonX86: 2, TwoSocketShare: 0.70},
	{Year: 2011, Parsed: 64, AMDShare: 0.15, LinuxShare: 0.02, Multi: 22, NonServer: 1, NonX86: 1, TwoSocketShare: 0.70},
	{Year: 2012, Parsed: 54, AMDShare: 0.10, LinuxShare: 0.03, Multi: 19, NonX86: 1, TwoSocketShare: 0.70},
	{Year: 2013, Parsed: 20, AMDShare: 0.00, LinuxShare: 0.03, Multi: 6, TwoSocketShare: 0.70},
	{Year: 2014, Parsed: 16, AMDShare: 0.00, LinuxShare: 0.03, Multi: 5, TwoSocketShare: 0.70},
	{Year: 2015, Parsed: 14, AMDShare: 0.00, LinuxShare: 0.03, Multi: 4, TwoSocketShare: 0.70},
	{Year: 2016, Parsed: 12, AMDShare: 0.00, LinuxShare: 0.04, Multi: 3, TwoSocketShare: 0.70},
	{Year: 2017, Parsed: 14, AMDShare: 0.07, LinuxShare: 0.07, Multi: 4, TwoSocketShare: 0.70},
	{Year: 2018, Parsed: 40, AMDShare: 0.25, LinuxShare: 0.25, Multi: 8, TwoSocketShare: 0.72},
	{Year: 2019, Parsed: 55, AMDShare: 0.30, LinuxShare: 0.30, Multi: 11, TwoSocketShare: 0.72},
	{Year: 2020, Parsed: 50, AMDShare: 0.30, LinuxShare: 0.35, Multi: 10, TwoSocketShare: 0.72},
	{Year: 2021, Parsed: 55, AMDShare: 0.33, LinuxShare: 0.38, Multi: 11, NonServer: 1, NonX86: 1, TwoSocketShare: 0.72},
	{Year: 2022, Parsed: 50, AMDShare: 0.35, LinuxShare: 0.40, Multi: 10, NonServer: 1, NonX86: 1, TwoSocketShare: 0.72},
	{Year: 2023, Parsed: 58, AMDShare: 0.33, LinuxShare: 0.40, Multi: 12, NonX86: 1, TwoSocketShare: 0.72},
	{Year: 2024, Parsed: 120, AMDShare: 0.32, LinuxShare: 0.40, Multi: 28, TwoSocketShare: 0.72},
}

// DefectPlan fixes the 57 runs the parse-consistency stage removes,
// with the paper's exact per-reason counts (Section II).
type DefectPlan struct {
	NotAccepted          int
	AmbiguousDate        int
	ImplausibleDate      int
	AmbiguousCPUName     int
	MissingNodeCount     int
	InconsistentCoreThrd int
	ImplausibleCoreThrd  int
}

// DefaultDefects matches the paper: 40+3+4+3+1+5+1 = 57.
var DefaultDefects = DefectPlan{
	NotAccepted:          40,
	AmbiguousDate:        3,
	ImplausibleDate:      4,
	AmbiguousCPUName:     3,
	MissingNodeCount:     1,
	InconsistentCoreThrd: 5,
	ImplausibleCoreThrd:  1,
}

// Total returns the number of defective runs in the plan.
func (d DefectPlan) Total() int {
	return d.NotAccepted + d.AmbiguousDate + d.ImplausibleDate +
		d.AmbiguousCPUName + d.MissingNodeCount +
		d.InconsistentCoreThrd + d.ImplausibleCoreThrd
}
