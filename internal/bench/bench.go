// Package bench regenerates every table and figure from the paper's
// evaluation section (Sec. 8). Each experiment has a driver that runs the
// required (application × input × system) combinations and a formatter that
// prints the same rows or series the paper reports. DESIGN.md's experiment
// index maps each driver back to its table/figure.
package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"fifer/internal/apps"
	"fifer/internal/apps/bfs"
	"fifer/internal/apps/cc"
	"fifer/internal/apps/prd"
	"fifer/internal/apps/radii"
	"fifer/internal/apps/silo"
	"fifer/internal/apps/spmm"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sparse"
	"fifer/internal/trace"
)

// Options selects the workload size for all experiments.
type Options struct {
	Scale int      // 0 = tiny (tests/benches), 1 = small (default), 2 = medium
	Seed  uint64   //
	Apps  []string // subset of AppNames; nil means all

	// Jobs is the number of simulations the experiment drivers run
	// concurrently. <= 1 runs serially (the default, and what library
	// callers get unless they opt in); parallel runs produce bit-identical
	// results in the same order — see runJobs.
	Jobs int
	// Progress, if non-nil, observes every job completion during driver
	// sweeps (Fig13, Fig16, Fig17, ZeroCost).
	Progress ProgressFunc

	// Context, when non-nil, cancels the whole sweep cooperatively once it
	// is done: no new job starts, and every in-flight CGRA simulation stops
	// at its next poll of core.Config.Done with a *core.StopError for
	// core.ErrCanceled. The OOO baselines do not run through the
	// core loop and finish on their own. A context that is never canceled
	// does not change any result.
	Context context.Context

	// JobTimeout, when positive, bounds each job's wall-clock time. The
	// deadline is enforced through the same cooperative core hook — the
	// simulation goroutine is stopped, never abandoned — and a timed-out
	// job's error wraps ErrJobTimeout. Wall-clock deadlines depend on
	// machine speed, so sweeps using them forfeit run-to-run determinism
	// for the jobs that time out.
	JobTimeout time.Duration

	// Trace, when non-nil, attaches an event collector and metrics sampler
	// to every CGRA simulation the sweep runs; see TraceSink.
	Trace *TraceSink

	// Override, when non-nil, adjusts every job's configuration, with the
	// contract of RunOne's override. It runs after the harness settings
	// (Context's cancellation hook, Trace's collector) and before the
	// job's own configuration fields and RunOne's override, which win.
	Override func(*core.Config)
}

// DefaultOptions returns the standard harness configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

// context returns opt.Context, or context.Background() when it is nil.
func (opt Options) context() context.Context {
	if opt.Context == nil {
		return context.Background()
	}
	return opt.Context
}

// appEntry is one row of the app table: an application's name, its input
// labels (Table 3/4 names), how its inputs are built and how it runs on one.
type appEntry struct {
	name   string
	inputs []string
	// family names build's generator. Apps of one family read the same
	// inputs, so a sweep builds each of them once (see inputStore).
	family string
	build  func(input string, scale int, seed uint64) any
	runOn  func(in any, derive apps.Derive, kind apps.SystemKind, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error)
}

// inputFamily is one generator of app inputs.
type inputFamily[T any] struct {
	name  string
	build func(input string, scale int, seed uint64) T
}

var (
	graphs = inputFamily[*graph.Graph]{"graph", func(in string, scale int, seed uint64) *graph.Graph {
		return graph.Generate(graph.Input(in), graph.Scale(scale), seed)
	}}
	matrices = inputFamily[spmm.Operands]{"sparse", spmm.Generate}
	datasets = inputFamily[silo.Dataset]{"silo", func(_ string, scale int, seed uint64) silo.Dataset {
		return silo.GenerateDataset(scale, seed)
	}}
)

// entry makes an app table row from the app's input family and its RunOn.
func entry[T any](name string, inputs []string, fam inputFamily[T],
	runOn func(apps.SystemKind, T, apps.Derive, int, uint64, bool, func(*core.Config)) (apps.Outcome, error)) appEntry {
	return appEntry{
		name:   name,
		inputs: inputs,
		family: fam.name,
		build:  func(in string, scale int, seed uint64) any { return fam.build(in, scale, seed) },
		runOn: func(in any, derive apps.Derive, kind apps.SystemKind, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
			return runOn(kind, in.(T), derive, scale, seed, merged, override)
		},
	}
}

// appTable lists the six benchmarks in the paper's order. It is the only
// place the harness knows which apps exist.
var appTable = []appEntry{
	entry(bfs.Name, graphInputs, graphs, bfs.RunOn),
	entry(cc.Name, graphInputs, graphs, cc.RunOn),
	entry(prd.Name, graphInputs, graphs, prd.RunOn),
	entry(radii.Name, graphInputs, graphs, radii.RunOn),
	entry(spmm.Name, labels(sparse.Inputs), matrices, spmm.RunOn),
	entry(silo.Name, []string{"YCSB-C"}, datasets, silo.RunOn),
}

var graphInputs = labels(graph.Inputs)

func labels[S ~string](inputs []S) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		out[i] = string(in)
	}
	return out
}

// AppNames lists the six benchmarks in the paper's order.
var AppNames = func() []string {
	names := make([]string, len(appTable))
	for i, a := range appTable {
		names[i] = a.name
	}
	return names
}()

// lookupApp returns app's table entry.
func lookupApp(app string) (appEntry, bool) {
	for _, a := range appTable {
		if a.name == app {
			return a, true
		}
	}
	return appEntry{}, false
}

// InputsOf returns the input labels of an application (Table 3/4 names).
// An unknown app gets the graph inputs, so a sweep over it still schedules
// jobs, and each of them fails as an unknown app.
func InputsOf(app string) []string {
	a, ok := lookupApp(app)
	if !ok {
		return slices.Clone(graphInputs)
	}
	return slices.Clone(a.inputs)
}

// selected returns the apps chosen by opt.
func (opt Options) selected() []string {
	if len(opt.Apps) == 0 {
		return AppNames
	}
	return opt.Apps
}

// RunOne executes one (app, input, system) combination.
//
// override, when non-nil, adjusts the configuration last, after the
// harness settings and opt.Override, so it wins over both: a caller can
// intentionally raise (or lower) the cycle budget cfg.MaxCycles. If the
// budget is exhausted the returned error wraps core.ErrMaxCycles.
func RunOne(app, input string, kind apps.SystemKind, merged bool, opt Options, override func(*core.Config)) (apps.Outcome, error) {
	return Job{App: app, Input: input, Kind: kind, Merged: merged}.run(opt, "", nil, override)
}

// Run executes the job alone, with its own inputs, as RunOne does.
func (j Job) Run(opt Options) (apps.Outcome, error) { return j.run(opt, "", nil, nil) }

// inputKey names the input j reads when run with opt. An unknown app gets
// an empty family.
func (j Job) inputKey(opt Options) inputKey {
	a, _ := lookupApp(j.App)
	return inputKey{family: a.family, input: j.Input, scale: opt.Scale, seed: opt.Seed}
}

// run executes the job as RunOne describes, reading its input and the
// values derived from it from inputs (nil builds private ones). The config
// is set by the harness, opt.Override, the job's fields and override, in
// that order. A traced run files its collector in opt.Trace under its Key
// after sweep's label, as one sink can see a job in several sweeps.
func (j Job) run(opt Options, sweep string, inputs *inputStore, override func(*core.Config)) (apps.Outcome, error) {
	var col *trace.Collector
	if opt.Trace != nil {
		col = trace.NewCollector(opt.Trace.BufEvents)
	}
	configure := func(cfg *core.Config) {
		cfg.Done = opt.context().Done()
		if col != nil {
			if !opt.Trace.MetricsOnly {
				cfg.Tracer = col
			}
			cfg.Metrics = col
			cfg.MetricsCycles = opt.Trace.SampleCycles
		}
		if opt.Override != nil {
			opt.Override(cfg)
		}
		j.configure(cfg)
		if override != nil {
			override(cfg)
		}
	}
	a, ok := lookupApp(j.App)
	if !ok {
		return apps.Outcome{}, fmt.Errorf("bench: unknown app %q", j.App)
	}
	k := j.inputKey(opt)
	in := inputs.get(k, "", func() any { return a.build(j.Input, opt.Scale, opt.Seed) })
	derive := func(name string, build func() any) any { return inputs.get(k, name, build) }
	out, err := a.runOn(in, derive, j.Kind, opt.Scale, opt.Seed, j.Merged, configure)
	if col != nil {
		opt.Trace.add(strings.TrimPrefix(sweep+" "+j.Key(), " "), col)
	}
	return out, err
}
