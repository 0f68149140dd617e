// Package bench regenerates every table and figure from the paper's
// evaluation section (Sec. 8). Each experiment has a driver that runs the
// required (application × input × system) combinations and a formatter that
// prints the same rows or series the paper reports. DESIGN.md's experiment
// index maps each driver back to its table/figure.
package bench

import (
	"errors"
	"fmt"
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

// AppNames lists the six benchmarks in the paper's order.
var AppNames = []string{bfs.Name, cc.Name, prd.Name, radii.Name, spmm.Name, silo.Name}

// InputsOf returns the input labels of an application (Table 3/4 names).
func InputsOf(app string) []string {
	switch app {
	case spmm.Name:
		out := make([]string, len(sparse.Inputs))
		for i, in := range sparse.Inputs {
			out[i] = string(in)
		}
		return out
	case silo.Name:
		return []string{"YCSB-C"}
	default:
		out := make([]string, len(graph.Inputs))
		for i, in := range graph.Inputs {
			out[i] = string(in)
		}
		return out
	}
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
	var col *trace.Collector
	if opt.Trace != nil {
		n := opt.Trace.BufEvents
		if n <= 0 {
			n = trace.DefaultBufEvents
		}
		col = trace.NewCollector(n)
	}
	user := override
	override = func(cfg *core.Config) {
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
			cfg.Tracer = col
			cfg.Metrics = col
			cfg.MetricsCycles = opt.Trace.SampleCycles
		}
		if opt.NoFastForward {
			cfg.NoFastForward = true
		}
		if user != nil {
			user(cfg)
		}
	}
	out, err := runApp(app, input, kind, merged, opt, override)
	if col != nil {
		opt.Trace.add(jobKey(app, input, kind, merged), col)
	}
	if err != nil && errors.Is(err, core.ErrMaxCycles) {
		err = fmt.Errorf("%w: %s/%s on %v: %w", ErrCycleBudget, app, input, kind, err)
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

// runApp dispatches to the application packages.
func runApp(app, input string, kind apps.SystemKind, merged bool, opt Options, override func(*core.Config)) (apps.Outcome, error) {
	switch app {
	case bfs.Name:
		return bfs.Run(kind, graph.Input(input), graph.Scale(opt.Scale), opt.Seed, merged, override)
	case cc.Name:
		return cc.Run(kind, graph.Input(input), graph.Scale(opt.Scale), opt.Seed, merged, override)
	case prd.Name:
		return prd.Run(kind, graph.Input(input), graph.Scale(opt.Scale), opt.Seed, merged, override)
	case radii.Name:
		return radii.Run(kind, graph.Input(input), graph.Scale(opt.Scale), opt.Seed, merged, override)
	case spmm.Name:
		return spmm.Run(kind, sparse.Input(input), opt.Scale, opt.Seed, merged, override)
	case silo.Name:
		return silo.Run(kind, opt.Scale, opt.Seed, merged, override)
	}
	return apps.Outcome{}, fmt.Errorf("bench: unknown app %q", app)
}
