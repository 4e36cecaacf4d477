// Command specparse parses a directory of SPECpower_ssj2008 result
// files, applies the paper's two-stage filter funnel, and emits the
// dataset as CSV (one row per run, with all derived metrics).
//
// Usage:
//
//	specparse -in corpus/ [-stage comparable|parsed|raw] [-o dataset.csv]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specparse: ")
	in := flag.String("in", "corpus", "directory of .txt result files")
	stage := flag.String("stage", "comparable", "which pipeline stage to emit: raw, parsed, or comparable")
	out := flag.String("o", "-", "output path (- = stdout)")
	format := flag.String("format", "csv", "output format: csv (flattened metrics) or json (full runs)")
	workers := flag.Int("workers", 0, "parallel parsers (0 = GOMAXPROCS)")
	flag.Parse()

	eng := core.New(
		core.WithSource(core.DirSource{Dir: *in}),
		core.WithWorkers(*workers))
	ds, err := eng.Dataset()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprint(os.Stderr, ds.Funnel.String())

	var runs []*model.Run
	switch *stage {
	case "raw":
		runs = ds.Raw
	case "parsed":
		runs = ds.Parsed
	case "comparable":
		runs = ds.Comparable
	default:
		log.Fatalf("unknown stage %q (want raw, parsed, or comparable)", *stage)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = f
	}
	switch *format {
	case "csv":
		if err := writeCSV(w, runs); err != nil {
			log.Fatal(err)
		}
	case "json":
		if err := report.WriteJSON(w, runs); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown format %q (want csv or json)", *format)
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// csvHeader names the CSV columns, one per derived metric, in order.
var csvHeader = []string{
	"id", "vendor", "class", "os", "year", "frac", "sockets", "nodes",
	"cores", "threads", "ghz", "tdp", "mem_gb", "full_w", "idle_w",
	"idle_frac", "w_socket_100", "w_socket_70", "w_socket_20",
	"overall_eff", "ext_idle_w", "idle_quot", "releff_60", "releff_70",
	"releff_80", "releff_90",
}

// writeCSV writes a header and then one row per run with every
// derived metric the analyses use. Floats are written in their
// shortest round-trip form and NaN as an empty cell.
func writeCSV(w io.Writer, runs []*model.Run) error {
	cw := csv.NewWriter(w)
	_ = cw.Write(csvHeader) // a failed write sticks and resurfaces from Error
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	itoa := strconv.Itoa
	ftoa := func(v float64) string {
		if math.IsNaN(v) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i, r := range runs {
		rec := []string{
			r.ID, r.CPUVendor.String(), r.CPUClass.String(), r.OSFamily.String(),
			itoa(r.HWAvail.Year), ftoa(r.HWAvail.Frac()),
			itoa(r.SocketsPerNode), itoa(r.Nodes), itoa(r.TotalCores), itoa(r.TotalThreads),
			ftoa(r.NominalGHz), ftoa(r.TDPWatts), itoa(r.MemGB),
			ftoa(r.FullLoadPower()), ftoa(r.IdlePower()), ftoa(r.IdleFraction()),
			ftoa(r.PowerPerSocketAt(100)), ftoa(r.PowerPerSocketAt(70)), ftoa(r.PowerPerSocketAt(20)),
			ftoa(r.OverallOpsPerWatt()), ftoa(r.ExtrapolatedIdlePower()), ftoa(r.ExtrapolatedIdleQuotient()),
			ftoa(r.RelativeEfficiencyAt(60)), ftoa(r.RelativeEfficiencyAt(70)),
			ftoa(r.RelativeEfficiencyAt(80)), ftoa(r.RelativeEfficiencyAt(90)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("write row %d (%s): %w", i, r.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("write row %d: %w", len(runs)-1, err)
	}
	return nil
}
