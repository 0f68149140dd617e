// Package bench regenerates every table and figure from the paper's
// evaluation section (Sec. 8). Each experiment has a driver that runs the
// required (application × input × system) combinations and a formatter that
// prints the same rows or series the paper reports. DESIGN.md's experiment
// index maps each driver back to its table/figure.
package bench

import (
	"errors"
	"fmt"
	"slices"
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
	// results in the same order — see Runner.
	Jobs int
	// Progress, if non-nil, observes every job completion during driver
	// sweeps (Fig13, Fig16, Fig17, ZeroCost).
	Progress ProgressFunc

	// WatchdogCycles adjusts the core progress watchdog for every job:
	// 0 keeps the config default, > 0 sets the window, < 0 disables the
	// watchdog. Like the harness cycle cap it is applied before the per-job
	// Override, so an override that sets Config.WatchdogCycles wins.
	WatchdogCycles int64
	// AuditCycles likewise adjusts the live invariant audit period.
	AuditCycles int64

	// Cancel, when non-nil, cancels the whole sweep cooperatively once the
	// channel is closed: no new job starts, and every in-flight CGRA
	// simulation stops at its next cancellation checkpoint (core.Config.Done)
	// with an error wrapping core.ErrCanceled. The OOO baselines do not run
	// through the core loop and finish on their own. A never-closed Cancel
	// does not change any result.
	Cancel <-chan struct{}

	// JobTimeout, when positive, bounds each job's wall-clock time. The
	// deadline is enforced through the same cooperative core hook — the
	// simulation goroutine is stopped, never abandoned — and a timed-out
	// job's error wraps ErrJobTimeout. Wall-clock deadlines depend on
	// machine speed, so sweeps using them forfeit run-to-run determinism
	// for the jobs that time out.
	JobTimeout time.Duration

	// MaxCycles overrides the harness cycle budget HarnessMaxCycles for
	// every job (0 keeps the default). The per-job Override still wins, as
	// it does for the other knobs.
	MaxCycles uint64

	// Journal, when non-nil, records every finished job durably and replays
	// journaled results on a resumed sweep. See CreateJournal/ResumeJournal.
	Journal *Journal

	// Trace, when non-nil, attaches an event collector and metrics sampler
	// to every CGRA simulation the sweep runs; see TraceSink. Applied before
	// the per-job Override, so an override that sets Config.Tracer (or
	// Metrics/MetricsCycles) wins.
	Trace *TraceSink

	// NoFastForward runs every simulation with the naive per-cycle loop
	// instead of the parking kernel (core.Config.NoFastForward) — the
	// differential oracle. Results are bit-identical either way; only
	// wall-clock time differs. Applied before the per-job Override, which
	// wins as usual.
	NoFastForward bool
}

// DefaultOptions returns the standard harness configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

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

// HarnessMaxCycles is the cycle budget RunOne imposes on every run so a
// misconfiguration surfaces as an error rather than an endless simulation.
const HarnessMaxCycles = 400_000_000

// ErrCycleBudget reports that a simulation ran out of its cycle budget
// (cfg.MaxCycles) before the program quiesced. RunOne translates the core
// layer's exhaustion error into this named error so harness callers can
// errors.Is for it and decide to raise the budget.
var ErrCycleBudget = errors.New("bench: simulation cycle budget exhausted (raise Config.MaxCycles via the override)")

// RunOne executes one (app, input, system) combination.
//
// The harness cap HarnessMaxCycles is applied to cfg.MaxCycles BEFORE the
// user override runs, so an override that sets MaxCycles always wins:
// callers can intentionally raise (or lower) the budget. If the budget is
// exhausted the returned error wraps ErrCycleBudget.
func RunOne(app, input string, kind apps.SystemKind, merged bool, opt Options, override func(*core.Config)) (apps.Outcome, error) {
	return Job{App: app, Input: input, Kind: kind, Merged: merged, Override: override}.run(opt, "", nil)
}

// inputKey names the input j reads when run with opt. An unknown app gets
// an empty family.
func (j Job) inputKey(opt Options) inputKey {
	a, _ := lookupApp(j.App)
	return inputKey{family: a.family, input: j.Input, scale: opt.Scale, seed: opt.Seed}
}

// run executes the job as RunOne describes, reading its input and the
// values derived from it from inputs (nil builds private ones). A traced
// run files its collector in opt.Trace under the job's traceKey in sweep.
func (j Job) run(opt Options, sweep string, inputs *inputStore) (apps.Outcome, error) {
	var col *trace.Collector
	if opt.Trace != nil {
		n := opt.Trace.BufEvents
		if n <= 0 {
			n = trace.DefaultBufEvents
		}
		col = trace.NewCollector(n)
	}
	override := func(cfg *core.Config) {
		cfg.MaxCycles = HarnessMaxCycles
		if opt.MaxCycles > 0 {
			cfg.MaxCycles = opt.MaxCycles
		}
		if opt.Cancel != nil {
			cfg.Done = opt.Cancel
		}
		if opt.WatchdogCycles != 0 {
			cfg.WatchdogCycles = cyclesKnob(opt.WatchdogCycles)
		}
		if opt.AuditCycles != 0 {
			cfg.AuditCycles = cyclesKnob(opt.AuditCycles)
		}
		if col != nil {
			if !opt.Trace.MetricsOnly {
				cfg.Tracer = col
			}
			cfg.Metrics = col
			cfg.MetricsCycles = opt.Trace.SampleCycles
		}
		if opt.NoFastForward {
			cfg.NoFastForward = true
		}
		if j.Override != nil {
			j.Override(cfg)
		}
	}
	a, ok := lookupApp(j.App)
	if !ok {
		return apps.Outcome{}, fmt.Errorf("bench: unknown app %q", j.App)
	}
	k := j.inputKey(opt)
	in := inputs.get(k, "", func() any { return a.build(j.Input, opt.Scale, opt.Seed) })
	derive := func(name string, build func() any) any { return inputs.get(k, name, build) }
	out, err := a.runOn(in, derive, j.Kind, opt.Scale, opt.Seed, j.Merged, override)
	if col != nil {
		opt.Trace.add(j.traceKey(sweep), col)
	}
	if err != nil && errors.Is(err, core.ErrMaxCycles) {
		err = fmt.Errorf("%w: %s: %w", ErrCycleBudget, j.Key(), err)
	}
	return out, err
}

// cyclesKnob maps an Options cycle knob to a config value: negative
// disables the mechanism (0 in the config), positive passes through.
func cyclesKnob(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}
