package bench

import (
	"fmt"
	"io"

	"fifer/internal/apps"
	"fifer/internal/stats"
)

// Fig13Cell holds the four systems' outcomes for one (app, input). In a
// degraded sweep (canceled, failed jobs) the missing systems are absent
// from Outcomes and carry their error class in Errs instead.
type Fig13Cell struct {
	App, Input string
	Outcomes   map[apps.SystemKind]apps.Outcome
	// Errs maps each failed system to its error class (ErrorClass); nil
	// when every system completed.
	Errs map[apps.SystemKind]string
}

// Failed returns the error class of kind's run, or "" if it succeeded.
func (c Fig13Cell) Failed(kind apps.SystemKind) string { return c.Errs[kind] }

// Speedup returns kind's speedup normalized to the 4-core OOO baseline
// (Fig. 13's normalization); 0 when either run is missing.
func (c Fig13Cell) Speedup(kind apps.SystemKind) float64 {
	base := c.Outcomes[apps.MulticoreOOO].Cycles
	own := c.Outcomes[kind].Cycles
	if own == 0 {
		return 0
	}
	return float64(base) / float64(own)
}

// Fig13Data is the full per-input performance sweep.
type Fig13Data struct {
	Cells []Fig13Cell
}

// Failed counts the sweep's failed or missing simulations.
func (d *Fig13Data) Failed() int {
	n := 0
	for _, c := range d.Cells {
		n += len(c.Errs)
	}
	return n
}

// Fig13 runs every application on every input on all four systems. The
// full job list is enumerated up front and executed on opt's worker pool
// (opt.Jobs workers); cells are assembled from the collected results, in
// the same (app, input, system) order a serial sweep produces. Failed or
// canceled jobs degrade their cells (see Fig13Cell.Errs) instead of
// aborting the sweep, so a partial run still renders every table.
func Fig13(opt Options) (*Fig13Data, error) {
	var jobs []Job
	for _, app := range opt.selected() {
		for _, input := range InputsOf(app) {
			for _, kind := range apps.Kinds {
				jobs = append(jobs, Job{App: app, Input: input, Kind: kind})
			}
		}
	}
	results := runJobs(opt, "fig13", jobs)
	if err := abortError(results); err != nil {
		return nil, err
	}
	data := &Fig13Data{}
	for i := 0; i < len(results); i += len(apps.Kinds) {
		cell := Fig13Cell{
			App:      results[i].Job.App,
			Input:    results[i].Job.Input,
			Outcomes: map[apps.SystemKind]apps.Outcome{},
		}
		for _, res := range results[i : i+len(apps.Kinds)] {
			if res.Err != nil {
				if cell.Errs == nil {
					cell.Errs = map[apps.SystemKind]string{}
				}
				cell.Errs[res.Job.Kind] = ErrorClass(res.Err)
				continue
			}
			cell.Outcomes[res.Job.Kind] = res.Outcome
		}
		data.Cells = append(data.Cells, cell)
	}
	return data, nil
}

// GMeanSpeedup returns the geometric-mean speedup of `over` relative to
// `base` across cells of one app ("" = all apps). Cells missing either
// run are skipped.
func (d *Fig13Data) GMeanSpeedup(app string, over, base apps.SystemKind) float64 {
	var xs []float64
	for _, c := range d.Cells {
		if app != "" && c.App != app {
			continue
		}
		b := c.Outcomes[base].Cycles
		o := c.Outcomes[over].Cycles
		if o > 0 && b > 0 {
			xs = append(xs, float64(b)/float64(o))
		}
	}
	return stats.GMean(xs)
}

// MaxSpeedup returns the maximum speedup of `over` vs `base` and the cell
// where it occurs.
func (d *Fig13Data) MaxSpeedup(over, base apps.SystemKind) (float64, string) {
	best, where := 0.0, ""
	for _, c := range d.Cells {
		b := c.Outcomes[base].Cycles
		o := c.Outcomes[over].Cycles
		if o == 0 || b == 0 {
			continue
		}
		if s := float64(b) / float64(o); s > best {
			best, where = s, c.App+"/"+c.Input
		}
	}
	return best, where
}

// Print renders the Fig. 13 speedup tables plus the paper's headline
// comparisons from Sec. 8.1/8.2. Missing cells print "!class" placeholders
// and the headline gmeans are computed over the surviving cells.
func (d *Fig13Data) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 13: per-input speedup, normalized to the 4-core OOO baseline")
	app := ""
	var tbl *stats.Table
	flush := func() {
		if tbl != nil {
			fmt.Fprintf(w, "\n(%s)\n%s", app, tbl)
		}
	}
	for _, c := range d.Cells {
		if c.App != app {
			flush()
			app = c.App
			tbl = stats.NewTable("input", "serial-ooo", "4-core-ooo", "static-16pe", "fifer-16pe", "fifer/static")
		}
		cell := func(kind apps.SystemKind) string {
			if cls := c.Failed(kind); cls != "" {
				return "!" + cls
			}
			if cls := c.Failed(apps.MulticoreOOO); cls != "" {
				return "!no-baseline"
			}
			return fmt.Sprintf("%.2f", c.Speedup(kind))
		}
		fsCell := ""
		switch {
		case c.Failed(apps.StaticPipe) != "":
			fsCell = "!" + c.Failed(apps.StaticPipe)
		case c.Failed(apps.FiferPipe) != "":
			fsCell = "!" + c.Failed(apps.FiferPipe)
		default:
			fs := 0.0
			if s := c.Outcomes[apps.StaticPipe].Cycles; s > 0 {
				fs = float64(s) / float64(c.Outcomes[apps.FiferPipe].Cycles)
			}
			fsCell = fmt.Sprintf("%.2f", fs)
		}
		tbl.Add(c.Input,
			cell(apps.SerialOOO),
			cell(apps.MulticoreOOO),
			cell(apps.StaticPipe),
			cell(apps.FiferPipe),
			fsCell)
	}
	flush()

	if n := d.Failed(); n > 0 {
		fmt.Fprintf(w, "\nDEGRADED: %d simulation(s) missing; affected cells show !error-class and gmeans cover surviving cells only.\n", n)
	}
	fmt.Fprintln(w, "\nHeadline comparisons (paper, Sec. 8.1-8.2):")
	maxFS, where := d.MaxSpeedup(apps.FiferPipe, apps.StaticPipe)
	fmt.Fprintf(w, "  Fifer vs static pipeline:  gmean %.2fx (paper: 2.8x), max %.2fx at %s (paper: 5.5x at CC/Rd)\n",
		d.GMeanSpeedup("", apps.FiferPipe, apps.StaticPipe), maxFS, where)
	fmt.Fprintf(w, "  Fifer vs 4-core OOO:       gmean %.2fx (paper: >17x)\n",
		d.GMeanSpeedup("", apps.FiferPipe, apps.MulticoreOOO))
	fmt.Fprintf(w, "  Static vs serial OOO:      gmean %.2fx (paper: 25x)\n",
		d.GMeanSpeedup("", apps.StaticPipe, apps.SerialOOO))
	fmt.Fprintf(w, "  Fifer vs serial OOO:       gmean %.2fx (paper: 72x)\n",
		d.GMeanSpeedup("", apps.FiferPipe, apps.SerialOOO))
}
