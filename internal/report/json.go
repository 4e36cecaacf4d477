package report

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/model"
)

// JSONRun is the JSON interchange form of a run: flat, with dates as
// "Mon-YYYY" strings and classifications as names, so downstream tools
// (and the paper's pandas-side consumers) need no knowledge of the Go
// enums.
type JSONRun struct {
	ID             string      `json:"id"`
	Accepted       bool        `json:"accepted"`
	TestDate       string      `json:"test_date"`
	SubmissionDate string      `json:"submission_date"`
	HWAvail        string      `json:"hw_avail"`
	SWAvail        string      `json:"sw_avail"`
	SystemVendor   string      `json:"system_vendor"`
	SystemName     string      `json:"system_name"`
	CPUName        string      `json:"cpu"`
	CPUVendor      string      `json:"cpu_vendor"`
	CPUClass       string      `json:"cpu_class"`
	Nodes          int         `json:"nodes"`
	SocketsPerNode int         `json:"sockets_per_node"`
	CoresPerSocket int         `json:"cores_per_socket"`
	ThreadsPerCore int         `json:"threads_per_core"`
	TotalCores     int         `json:"total_cores"`
	TotalThreads   int         `json:"total_threads"`
	NominalGHz     float64     `json:"nominal_ghz"`
	TDPWatts       float64     `json:"tdp_watts"`
	MemGB          int         `json:"mem_gb"`
	PSUWatts       int         `json:"psu_watts"`
	OSName         string      `json:"os"`
	OSFamily       string      `json:"os_family"`
	JVM            string      `json:"jvm"`
	Points         []JSONPoint `json:"points"`
}

// JSONPoint is one measurement interval.
type JSONPoint struct {
	TargetLoad int     `json:"target_load"`
	SSJOps     float64 `json:"ssj_ops"`
	AvgWatts   float64 `json:"avg_watts"`
}

// ToJSONRun converts a run.
func ToJSONRun(r *model.Run) JSONRun {
	j := JSONRun{
		ID:             r.ID,
		Accepted:       r.Accepted,
		TestDate:       r.TestDate.String(),
		SubmissionDate: r.SubmissionDate.String(),
		HWAvail:        r.HWAvail.String(),
		SWAvail:        r.SWAvail.String(),
		SystemVendor:   r.SystemVendor,
		SystemName:     r.SystemName,
		CPUName:        r.CPUName,
		CPUVendor:      r.CPUVendor.String(),
		CPUClass:       r.CPUClass.String(),
		Nodes:          r.Nodes,
		SocketsPerNode: r.SocketsPerNode,
		CoresPerSocket: r.CoresPerSocket,
		ThreadsPerCore: r.ThreadsPerCore,
		TotalCores:     r.TotalCores,
		TotalThreads:   r.TotalThreads,
		NominalGHz:     r.NominalGHz,
		TDPWatts:       r.TDPWatts,
		MemGB:          r.MemGB,
		PSUWatts:       r.PSUWatts,
		OSName:         r.OSName,
		OSFamily:       r.OSFamily.String(),
		JVM:            r.JVM,
	}
	for _, p := range r.Points {
		j.Points = append(j.Points, JSONPoint{
			TargetLoad: p.TargetLoad, SSJOps: p.ActualOps, AvgWatts: p.AvgPower,
		})
	}
	return j
}

// FromJSONRun converts back to a model run. Unparseable dates become
// zero values for the consistency checks to classify, mirroring the
// text parser's leniency.
func FromJSONRun(j JSONRun) *model.Run {
	parse := func(s string) model.YearMonth {
		ym, err := model.ParseYearMonth(s)
		if err != nil {
			return model.YearMonth{}
		}
		return ym
	}
	r := &model.Run{
		ID:             j.ID,
		Accepted:       j.Accepted,
		TestDate:       parse(j.TestDate),
		SubmissionDate: parse(j.SubmissionDate),
		HWAvail:        parse(j.HWAvail),
		SWAvail:        parse(j.SWAvail),
		SystemVendor:   j.SystemVendor,
		SystemName:     j.SystemName,
		CPUName:        j.CPUName,
		CPUVendor:      model.ParseCPUVendor(j.CPUName),
		CPUClass:       model.ClassifyCPU(j.CPUName),
		Nodes:          j.Nodes,
		SocketsPerNode: j.SocketsPerNode,
		CoresPerSocket: j.CoresPerSocket,
		ThreadsPerCore: j.ThreadsPerCore,
		TotalCores:     j.TotalCores,
		TotalThreads:   j.TotalThreads,
		NominalGHz:     j.NominalGHz,
		TDPWatts:       j.TDPWatts,
		MemGB:          j.MemGB,
		PSUWatts:       j.PSUWatts,
		OSName:         j.OSName,
		OSFamily:       model.ParseOSFamily(j.OSName),
		JVM:            j.JVM,
	}
	for _, p := range j.Points {
		r.Points = append(r.Points, model.LoadPoint{
			TargetLoad: p.TargetLoad, ActualOps: p.SSJOps, AvgPower: p.AvgWatts,
		})
	}
	r.SortPoints()
	return r
}

// WriteJSON writes runs as a JSON array.
func WriteJSON(w io.Writer, runs []*model.Run) error {
	out := make([]JSONRun, len(runs))
	for i, r := range runs {
		out[i] = ToJSONRun(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("report: encode json: %w", err)
	}
	return nil
}
