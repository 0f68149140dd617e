package bench

import (
	"fmt"
	"io"

	"fifer/internal/apps"
	"fifer/internal/stats"
)

// Fig17Row is one application's merged-stage comparison (Sec. 8.4):
// gmean speedups across inputs, normalized to the fully decoupled static
// pipeline. In a degraded sweep ErrClass carries the first error class
// among the app's missing inputs and the gmeans cover surviving inputs.
type Fig17Row struct {
	App          string
	MergedStatic float64
	Fifer        float64
	ErrClass     string
}

// Fig17 compares the fully decoupled static pipeline, the merged-stage
// static pipeline, and Fifer. Jobs are enumerated as (decoupled, merged,
// fifer) triples per (app, input) and run on opt's worker pool. An input
// whose triple lost any simulation drops out of its app's gmeans instead
// of aborting the sweep.
func Fig17(opt Options) ([]Fig17Row, error) {
	var jobs []Job
	for _, app := range opt.selected() {
		for _, input := range InputsOf(app) {
			jobs = append(jobs,
				Job{App: app, Input: input, Kind: apps.StaticPipe},
				Job{App: app, Input: input, Kind: apps.StaticPipe, Merged: true},
				Job{App: app, Input: input, Kind: apps.FiferPipe})
		}
	}
	results := runJobs(opt, "fig17", jobs)
	if err := abortError(results); err != nil {
		return nil, err
	}
	var rows []Fig17Row
	i := 0
	for _, app := range opt.selected() {
		row := Fig17Row{App: app}
		var merged, fifer []float64
		for range InputsOf(app) {
			triple := results[i : i+3]
			i += 3
			if bad := firstError(triple); bad != nil {
				if row.ErrClass == "" {
					row.ErrClass = ErrorClass(bad.Err)
				}
				continue
			}
			base, m, f := triple[0].Outcome, triple[1].Outcome, triple[2].Outcome
			merged = append(merged, float64(base.Cycles)/float64(m.Cycles))
			fifer = append(fifer, float64(base.Cycles)/float64(f.Cycles))
		}
		row.MergedStatic = stats.GMean(merged)
		row.Fifer = stats.GMean(fifer)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig17 renders the merged-stage comparison; degraded rows are
// annotated with their error class.
func PrintFig17(w io.Writer, rows []Fig17Row) {
	fmt.Fprintln(w, "Figure 17: merged-stage pipelines, normalized to the fully decoupled static pipeline")
	tbl := stats.NewTable("app", "fully-decoupled static", "merged static", "fifer")
	degraded := false
	for _, r := range rows {
		if r.ErrClass != "" {
			degraded = true
		}
		tbl.Add(r.App, "1.00", degradedCell(r.MergedStatic, r.ErrClass), degradedCell(r.Fifer, r.ErrClass))
	}
	fmt.Fprint(w, tbl)
	if degraded {
		fmt.Fprintln(w, "DEGRADED: some simulations are missing; !class cells have no data, * marks partial gmeans.")
	}
	fmt.Fprintln(w, "\nPaper's reading: merging hurts BFS (4.4x slower static) and CC, slightly helps")
	fmt.Fprintln(w, "PRD/Radii, and helps SpMM on sparse inputs; Silo degrades slightly.")
}
