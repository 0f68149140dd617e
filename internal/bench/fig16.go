package bench

import (
	"fmt"
	"io"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/stats"
)

// Fig16Point is one (app, scale-factor, double-buffering) measurement:
// gmean speedup across inputs relative to the default configuration
// (16 KB, double-buffered). In a degraded sweep ErrClass carries the first
// error class among the point's missing inputs; the gmean then covers only
// the surviving inputs (and is 0 when none survive).
type Fig16Point struct {
	App      string
	Factor   float64
	Double   bool
	Speedup  float64
	ErrClass string
}

// Fig16Factors is the paper's queue-memory sweep (1x = 16 KB).
var Fig16Factors = []float64{0.25, 0.5, 1, 2, 4}

// Fig16 sweeps per-PE queue memory and double-buffered configuration cells
// on the Fifer system. Baseline and sweep jobs are enumerated together and
// run on opt's worker pool; speedups are computed from the collected
// results. Failed or canceled jobs degrade their points (ErrClass) instead
// of aborting the sweep.
func Fig16(opt Options) ([]Fig16Point, error) {
	type meta struct {
		app, input     string
		factor         float64
		double, isBase bool
	}
	var jobs []Job
	var metas []meta
	for _, app := range opt.selected() {
		// Input-major, so the sweep holds each input only while its jobs
		// run.
		for _, input := range InputsOf(app) {
			// Baseline cycles (factor 1, double-buffered). The default
			// config is that point of the sweep, so this job is also its
			// 1x double-buffered run.
			jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe})
			metas = append(metas, meta{app: app, input: input, factor: 1, double: true, isBase: true})
			for _, factor := range Fig16Factors {
				for _, double := range []bool{true, false} {
					if factor == 1 && double {
						continue
					}
					f, d := factor, double
					variant := fmt.Sprintf("qmem=%gx", f)
					if !d {
						variant += " no-dbuf"
					}
					jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe, Variant: variant,
						Override: func(cfg *core.Config) {
							*cfg = cfg.WithQueueScale(f)
							cfg.DoubleBuffered = d
						}})
					metas = append(metas, meta{app: app, input: input, factor: factor, double: double})
				}
			}
		}
	}
	results := runJobs(opt, "fig16", jobs)
	if err := abortError(results); err != nil {
		return nil, err
	}

	base := make(map[[2]string]uint64)    // (app, input) -> baseline cycles
	baseErr := make(map[[2]string]string) // (app, input) -> baseline error class
	for i, m := range metas {
		if !m.isBase {
			continue
		}
		if err := results[i].Err; err != nil {
			baseErr[[2]string{m.app, m.input}] = ErrorClass(err)
			continue
		}
		base[[2]string{m.app, m.input}] = results[i].Outcome.Cycles
	}
	// Points keep the serial sweep's order: per app, factor-major then
	// double-buffer, gmean across that app's inputs.
	var points []Fig16Point
	type ptKey struct {
		app    string
		factor float64
		double bool
	}
	speedups := map[ptKey][]float64{}
	errCls := map[ptKey]string{}
	for i, m := range metas {
		k := ptKey{m.app, m.factor, m.double}
		in := [2]string{m.app, m.input}
		switch {
		case results[i].Err != nil:
			if errCls[k] == "" {
				errCls[k] = ErrorClass(results[i].Err)
			}
		case baseErr[in] != "":
			// The sweep run succeeded but its normalization baseline is
			// missing; the input drops out of this point's gmean.
			if errCls[k] == "" {
				errCls[k] = baseErr[in]
			}
		default:
			speedups[k] = append(speedups[k], float64(base[in])/float64(results[i].Outcome.Cycles))
		}
	}
	for _, app := range opt.selected() {
		for _, factor := range Fig16Factors {
			for _, double := range []bool{true, false} {
				k := ptKey{app, factor, double}
				points = append(points, Fig16Point{App: app, Factor: factor, Double: double,
					Speedup: stats.GMean(speedups[k]), ErrClass: errCls[k]})
			}
		}
	}
	return points, nil
}

// PrintFig16 renders the sweep as the paper's per-app series. Points with
// missing inputs are annotated: "!class" when nothing survived, "value*"
// when the gmean covers a strict subset of the inputs.
func PrintFig16(w io.Writer, points []Fig16Point, opt Options) {
	fmt.Fprintln(w, "Figure 16: Fifer speedup vs per-PE queue memory (1x = 16 KB), with and")
	fmt.Fprintln(w, "without double-buffered configuration cells, relative to the 1x default")
	tbl := stats.NewTable("app", "variant", "0.25x", "0.5x", "1x", "2x", "4x")
	degraded := false
	for _, app := range opt.selected() {
		for _, double := range []bool{true, false} {
			label := "double-buffered"
			if !double {
				label = "no-double-buffer"
			}
			row := []any{app, label}
			for _, f := range Fig16Factors {
				for _, pt := range points {
					if pt.App == app && pt.Factor == f && pt.Double == double {
						if pt.ErrClass != "" {
							degraded = true
						}
						row = append(row, degradedCell(pt.Speedup, pt.ErrClass))
					}
				}
			}
			tbl.Add(row...)
		}
	}
	fmt.Fprint(w, tbl)
	if degraded {
		fmt.Fprintln(w, "DEGRADED: some simulations are missing; !class cells have no data, * marks partial gmeans.")
	}
}

// ZeroCostResult compares default Fifer to idealized zero-cost
// reconfiguration (Sec. 8.3's final experiment). Failed counts (app, input)
// pairs that could not contribute; ErrClass is the first error class seen.
type ZeroCostResult struct {
	GMean    float64
	Max      float64
	Where    string
	Failed   int
	ErrClass string
}

// ZeroCost measures the speedup of free reconfiguration over the default.
// Jobs are enumerated in (default, idealized) pairs per (app, input) and
// run on opt's worker pool; failed pairs degrade the aggregate instead of
// aborting it.
func ZeroCost(opt Options) (ZeroCostResult, error) {
	var res ZeroCostResult
	var jobs []Job
	for _, app := range opt.selected() {
		for _, input := range InputsOf(app) {
			jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe})
			jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe, Variant: "zero-cost",
				Override: func(cfg *core.Config) { cfg.ZeroCostReconfig = true }})
		}
	}
	results := runJobs(opt, "zerocost", jobs)
	if err := abortError(results); err != nil {
		return res, err
	}
	var xs []float64
	for i := 0; i < len(results); i += 2 {
		base, ideal := results[i], results[i+1]
		if base.Err != nil || ideal.Err != nil {
			res.Failed++
			if res.ErrClass == "" {
				bad := base.Err
				if bad == nil {
					bad = ideal.Err
				}
				res.ErrClass = ErrorClass(bad)
			}
			continue
		}
		s := float64(base.Outcome.Cycles) / float64(ideal.Outcome.Cycles)
		xs = append(xs, s)
		if s > res.Max {
			res.Max, res.Where = s, base.Job.App+"/"+base.Job.Input
		}
	}
	res.GMean = stats.GMean(xs)
	return res, nil
}

// PrintZeroCost renders the Sec. 8.3 zero-cost-reconfiguration claim.
func PrintZeroCost(w io.Writer, r ZeroCostResult) {
	fmt.Fprintln(w, "Sec. 8.3: idealized zero-cost reconfiguration vs Fifer")
	fmt.Fprintf(w, "  gmean speedup %.2fx (paper: ~1.10x), max %.2fx at %s (paper: 1.8x on SpMM/Gr)\n",
		r.GMean, r.Max, r.Where)
	if r.Failed > 0 {
		fmt.Fprintf(w, "  DEGRADED: %d input pair(s) missing (%s); the aggregate covers surviving pairs only.\n",
			r.Failed, r.ErrClass)
	}
	fmt.Fprintln(w, "  Conclusion (paper): a poor tradeoff — too much complexity for limited benefit.")
}
