package model

import (
	"fmt"
	"math"
	"sort"
)

// LoadPoint is one measurement interval of a SPECpower_ssj2008 run: a
// target load percentage, the throughput achieved during the interval,
// and the average wall power drawn.
type LoadPoint struct {
	// TargetLoad is the calibrated load percentage: 100, 90, …, 10,
	// or 0 for the active-idle interval.
	TargetLoad int
	// ActualOps is the achieved throughput in ssj_ops (0 at active idle).
	ActualOps float64
	// AvgPower is the average AC power in watts over the interval.
	AvgPower float64
}

// OpsPerWatt is the interval's energy efficiency. It returns 0 for the
// active-idle interval and for non-positive power readings.
func (lp LoadPoint) OpsPerWatt() float64 {
	if lp.AvgPower <= 0 {
		return 0
	}
	return lp.ActualOps / lp.AvgPower
}

// StandardLoads lists the eleven target loads of a compliant run in
// report order: 100 % down to 10 % in steps of ten, then active idle.
func StandardLoads() []int {
	return []int{100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0}
}

// Run is one parsed SPECpower_ssj2008 result.
type Run struct {
	// ID is the SPEC publication identifier, e.g. "power_ssj2008-20230214-01234".
	ID string
	// Accepted reports whether SPEC accepted the submission. The paper
	// discards runs "that have not been accepted by SPEC".
	Accepted bool

	// TestDate is when the benchmark was executed.
	TestDate YearMonth
	// SubmissionDate is when the result was submitted to SPEC.
	SubmissionDate YearMonth
	// HWAvail is the hardware general-availability date; the paper bins
	// all trends by this date.
	HWAvail YearMonth
	// SWAvail is the software availability date.
	SWAvail YearMonth

	// SystemVendor and SystemName identify the SUT ("Lenovo", "SR645 V3").
	SystemVendor string
	SystemName   string

	// CPUName is the marketing name, e.g. "AMD EPYC 9754 2.25 GHz".
	CPUName string
	// CPUVendor is the classified manufacturer.
	CPUVendor CPUVendor
	// CPUClass is the classified market segment.
	CPUClass CPUClass

	// Nodes is the number of nodes in the SUT (0 = missing in report).
	Nodes int
	// SocketsPerNode is the number of populated CPU sockets per node.
	SocketsPerNode int
	// CoresPerSocket and ThreadsPerCore describe the topology; TotalCores
	// and TotalThreads are the values reported in the result file and are
	// cross-checked against the topology during validation.
	CoresPerSocket int
	ThreadsPerCore int
	TotalCores     int
	TotalThreads   int

	// NominalGHz is the base frequency; TDPWatts the rated thermal
	// design power per socket; MemGB the installed memory.
	NominalGHz float64
	TDPWatts   float64
	MemGB      int
	// PSUWatts is the rated output of one power supply.
	PSUWatts int

	// OSName is the full OS string; OSFamily its classification.
	OSName   string
	OSFamily OSFamily
	// JVM is the Java runtime used by the ssj workload.
	JVM string

	// Points are the measurement intervals, in report order
	// (100 % … 10 %, then active idle).
	Points []LoadPoint
}

// Point returns the load point with the given target load and whether it
// exists.
func (r *Run) Point(target int) (LoadPoint, bool) {
	for _, p := range r.Points {
		if p.TargetLoad == target {
			return p, true
		}
	}
	return LoadPoint{}, false
}

// FullLoadPower returns the average power at the 100 % interval, or NaN
// if the run lacks one.
func (r *Run) FullLoadPower() float64 {
	if p, ok := r.Point(100); ok {
		return p.AvgPower
	}
	return math.NaN()
}

// IdlePower returns the active-idle average power, or NaN if absent.
func (r *Run) IdlePower() float64 {
	if p, ok := r.Point(0); ok {
		return p.AvgPower
	}
	return math.NaN()
}

// IdleFraction is idle power divided by full-load power (Figure 5).
func (r *Run) IdleFraction() float64 {
	full := r.FullLoadPower()
	idle := r.IdlePower()
	if math.IsNaN(full) || math.IsNaN(idle) || full <= 0 {
		return math.NaN()
	}
	return idle / full
}

// OverallOpsPerWatt is the headline SPEC Power score: the sum of ssj_ops
// across all load levels divided by the sum of average power across all
// levels including active idle.
func (r *Run) OverallOpsPerWatt() float64 {
	var ops, pw float64
	for _, p := range r.Points {
		ops += p.ActualOps
		pw += p.AvgPower
	}
	if pw <= 0 {
		return math.NaN()
	}
	return ops / pw
}

// EfficiencyAt returns ssj_ops/W at one target load, or NaN if the point
// is absent or unpowered.
func (r *Run) EfficiencyAt(target int) float64 {
	p, ok := r.Point(target)
	if !ok || p.AvgPower <= 0 {
		return math.NaN()
	}
	return p.ActualOps / p.AvgPower
}

// RelativeEfficiencyAt is the interval efficiency scaled to the full-load
// efficiency (Figure 4). A value of 1 at every level corresponds to
// perfect energy proportionality.
func (r *Run) RelativeEfficiencyAt(target int) float64 {
	full := r.EfficiencyAt(100)
	at := r.EfficiencyAt(target)
	if math.IsNaN(full) || math.IsNaN(at) || full <= 0 {
		return math.NaN()
	}
	return at / full
}

// ExtrapolatedIdlePower performs the paper's linear extrapolation of the
// power consumed at 20 % and 10 % load down to 0 % load: the power the
// system would draw at active idle absent idle-specific optimizations.
func (r *Run) ExtrapolatedIdlePower() float64 {
	p10, ok10 := r.Point(10)
	p20, ok20 := r.Point(20)
	if !ok10 || !ok20 {
		return math.NaN()
	}
	// Two points determine the line: P(0) = P10 - (P20-P10)/(20-10)*10.
	slope := (p20.AvgPower - p10.AvgPower) / 10
	return p10.AvgPower - slope*10
}

// ExtrapolatedIdleQuotient divides the extrapolated by the measured
// active-idle power (Figure 6). Values above 1 indicate effective
// idle-specific power optimization; 1 indicates none.
func (r *Run) ExtrapolatedIdleQuotient() float64 {
	idle := r.IdlePower()
	ext := r.ExtrapolatedIdlePower()
	if math.IsNaN(idle) || math.IsNaN(ext) || idle <= 0 {
		return math.NaN()
	}
	return ext / idle
}

// TotalSockets is the populated socket count across all nodes.
func (r *Run) TotalSockets() int {
	return r.Nodes * r.SocketsPerNode
}

// PowerPerSocketAt divides interval power by the total socket count
// (Figure 2 uses the 100 % interval).
func (r *Run) PowerPerSocketAt(target int) float64 {
	s := r.TotalSockets()
	p, ok := r.Point(target)
	if s <= 0 || !ok {
		return math.NaN()
	}
	return p.AvgPower / float64(s)
}

// SortPoints orders the measurement intervals in report order
// (descending target load, active idle last).
func (r *Run) SortPoints() {
	sort.Slice(r.Points, func(i, j int) bool {
		return r.Points[i].TargetLoad > r.Points[j].TargetLoad
	})
}

// String returns a compact one-line description for logs and errors.
func (r *Run) String() string {
	return fmt.Sprintf("%s [%s %s, %dN×%dS, HW %s, %.0f ops/W]",
		r.ID, r.CPUVendor, r.CPUName, r.Nodes, r.SocketsPerNode,
		r.HWAvail, r.OverallOpsPerWatt())
}
