// Package fifer is the public API of this repository: a cycle-level
// reproduction of "Fifer: Practical Acceleration of Irregular Applications
// on Reconfigurable Architectures" (Nguyen & Sanchez, MICRO 2021).
//
// The package re-exports the high-level entry points a downstream user
// needs: system configuration, the four evaluated systems, the six
// benchmark applications, and the experiment harness that regenerates the
// paper's tables and figures. Lower-level building blocks (the CGRA fabric
// model, queues, caches, the stage abstraction) live in the internal
// packages and are exercised through these exports and the examples/.
//
// Quick start:
//
//	out, err := fifer.RunApp("BFS", "Hu", fifer.FiferPipe, fifer.Options{Scale: 1, Seed: 1})
//	fmt.Println(out.Cycles)
//
// See examples/quickstart for a complete program and DESIGN.md for the
// architecture overview and the per-experiment index.
package fifer

import (
	"io"

	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/core"
	"fifer/internal/energy"
	"fifer/internal/trace"
)

// SystemKind selects one of the paper's four evaluated systems.
type SystemKind = apps.SystemKind

// The four evaluated systems (Sec. 7.1).
const (
	SerialOOO    = apps.SerialOOO
	MulticoreOOO = apps.MulticoreOOO
	StaticPipe   = apps.StaticPipe
	FiferPipe    = apps.FiferPipe
)

// Kinds lists the four systems in Fig. 13's order.
var Kinds = apps.Kinds

// Options selects workload scale and seed for runs and experiments.
// Options.Jobs sets how many simulations the experiment drivers (Fig13,
// Fig16, Fig17, ZeroCost) run concurrently; 0 (the default) is serial,
// and results are bit-identical at every worker count.
type Options = bench.Options

// DefaultOptions returns the standard configuration (small scale, seed 1).
func DefaultOptions() Options { return bench.DefaultOptions() }

// Outcome is one run's measurements: cycles, CPI stack, energy inputs, and
// whether the functional result matched the reference implementation.
type Outcome = apps.Outcome

// JobResult is one sweep job's result as reported to Options.Progress:
// the job and its outcome or error.
type JobResult = bench.JobResult

// ProgressFunc observes sweep job completions (Options.Progress); done is
// monotone 1..total and every job is reported exactly once.
type ProgressFunc = bench.ProgressFunc

// ErrCycleBudget is returned (wrapped) by runs that exhaust their cycle
// budget (Config.MaxCycles, 400M cycles by default) before completing.
// The user override runs last, so it may raise MaxCycles to buy a longer
// budget.
var ErrCycleBudget = bench.ErrCycleBudget

// ErrDeadlock is returned (wrapped) when the progress watchdog
// (Config.WatchdogCycles, settable for a sweep through Options.Override)
// sees no component of the simulated system make progress for a full
// window. errors.As with a *DeadlockError retrieves the structured report.
var ErrDeadlock = core.ErrDeadlock

// ErrInvariant is returned (wrapped) when the live invariant audit
// (Config.AuditCycles, settable for a sweep through Options.Override) finds
// the simulation in an inconsistent state, or when recovered queue-layer
// corruption is reported.
var ErrInvariant = core.ErrInvariant

// DeadlockError carries the watchdog's structured DeadlockReport: trip
// cycle, last progress, wait-for edges naming what each blocked component
// waits on, and a truncated state dump.
type DeadlockError = core.DeadlockError

// ErrCanceled is returned (wrapped) by runs stopped through the cooperative
// cancellation hook (Config.Done, or Options.Context). errors.As with a
// *CanceledError retrieves the stop cycle and a blocked-state excerpt.
var ErrCanceled = core.ErrCanceled

// CanceledError carries where a canceled run stopped.
type CanceledError = core.CanceledError

// ErrJobTimeout is returned (wrapped) by sweep jobs that exceeded
// Options.JobTimeout; the underlying error still wraps ErrCanceled because
// the deadline is enforced through the same cooperative hook.
var ErrJobTimeout = bench.ErrJobTimeout

// ErrorClass maps any run or sweep error onto its stable one-word class
// ("ok", "canceled", "timeout", "panic", "cycle-budget", "deadlock",
// "invariant", "error") — the vocabulary degraded tables print.
func ErrorClass(err error) string { return bench.ErrorClass(err) }

// Config is the CGRA-system configuration (Table 2 plus Fifer mechanisms).
type Config = core.Config

// Observability (DESIGN.md §9): typed event tracing and periodic metrics
// sampling with zero overhead when disabled, and bit-identical results when
// enabled.

// TraceEvent is one typed simulation event (cycle, PE, kind, component,
// payload) as emitted through Config.Tracer.
type TraceEvent = trace.Event

// TraceKind identifies a simulation event's type; see the trace package for
// the taxonomy (stage switches, reconfigurations, queue stall edges, DRM
// traffic, credits, watchdog checkpoints).
type TraceKind = trace.Kind

// Tracer receives events from a simulation (Config.Tracer). A nil Tracer —
// the default — costs one branch per potential event and no allocations.
type Tracer = trace.Tracer

// MetricsRow is one periodic per-PE sample: CPI-stack deltas over the
// window plus queue-occupancy and DRM-inflight gauges (Config.Metrics).
type MetricsRow = trace.MetricsRow

// Collector is the standard in-memory Tracer and MetricsSink: a
// fixed-capacity event ring with flight-recorder semantics plus a metrics
// log. Attach one to a single run via the Config override:
//
//	col := fifer.NewCollector(0)
//	out, _ := fifer.RunApp("BFS", "Hu", fifer.FiferPipe, opt, func(cfg *fifer.Config) {
//		cfg.Tracer, cfg.Metrics = col, col
//	})
type Collector = trace.Collector

// NewCollector returns a Collector with the given event-ring capacity
// (<= 0 selects the 1M-event default).
func NewCollector(capEvents int) *Collector { return trace.NewCollector(capEvents) }

// TraceSink collects traces and metrics for every simulation in a sweep
// (Options.Trace); its Write* methods export the Chrome/Perfetto trace JSON
// and metrics JSONL/CSV files that cmd/fifertrace summarizes.
type TraceSink = bench.TraceSink

// NewTraceSink returns a sweep-wide trace sink sampling metrics every
// sampleCycles cycles (0 selects the 4096-cycle default).
func NewTraceSink(sampleCycles uint64) *TraceSink { return bench.NewTraceSink(sampleCycles) }

// WriteTrace exports per-job event streams as one Chrome trace-event JSON
// document that Perfetto and chrome://tracing load directly.
func WriteTrace(w io.Writer, jobs []trace.JobTrace) error { return trace.WriteChrome(w, jobs) }

// DefaultConfig returns the paper's 16-PE Fifer system; StaticConfig the
// static-spatial-pipeline baseline.
func DefaultConfig() Config { return core.DefaultConfig() }

// StaticConfig returns the baseline system without the scheduler.
func StaticConfig() Config { return core.StaticConfig() }

// AppNames lists the six benchmarks in the paper's order:
// BFS, CC, PRD, Radii, SpMM, Silo.
var AppNames = bench.AppNames

// InputsOf returns the Table 3/4 input labels of an application.
func InputsOf(app string) []string { return bench.InputsOf(app) }

// RunApp executes one benchmark on one input and system, verifying the
// functional output against the pure-Go reference implementation. Passing a
// non-nil override customizes the CGRA system (queue sizes, scheduler
// policy, reconfiguration model) before the run.
func RunApp(app, input string, kind SystemKind, opt Options, override ...func(*Config)) (Outcome, error) {
	var ov func(*Config)
	if len(override) > 0 {
		ov = override[0]
	}
	return bench.RunOne(app, input, kind, false, opt, ov)
}

// RunAppMerged is RunApp with the merged-stage pipeline variant (Sec. 8.4).
func RunAppMerged(app, input string, kind SystemKind, opt Options, override ...func(*Config)) (Outcome, error) {
	var ov func(*Config)
	if len(override) > 0 {
		ov = override[0]
	}
	return bench.RunOne(app, input, kind, true, opt, ov)
}

// EnergyBreakdown converts a run's event counts into the Fig. 15 energy
// components (picojoules).
func EnergyBreakdown(out Outcome) energy.Breakdown { return energy.Model(out.Counts) }

// Experiment drivers: each regenerates one of the paper's tables/figures.

// Fig13 runs the per-input performance sweep over all systems.
func Fig13(opt Options) (*bench.Fig13Data, error) { return bench.Fig13(opt) }

// Fig16 sweeps queue-memory size and double-buffering (Fig. 16).
func Fig16(opt Options) ([]bench.Fig16Point, error) { return bench.Fig16(opt) }

// Fig17 compares merged-stage pipelines (Fig. 17 / Sec. 8.4).
func Fig17(opt Options) ([]bench.Fig17Row, error) { return bench.Fig17(opt) }

// ZeroCost measures idealized zero-cost reconfiguration (Sec. 8.3).
func ZeroCost(opt Options) (bench.ZeroCostResult, error) { return bench.ZeroCost(opt) }

// PrintTables renders the static configuration tables (Tables 1-4).
func PrintTables(w io.Writer, opt Options) {
	bench.PrintTable1(w)
	io.WriteString(w, "\n")
	bench.PrintTable2(w)
	io.WriteString(w, "\n")
	bench.PrintTable3(w, opt)
	io.WriteString(w, "\n")
	bench.PrintTable4(w, opt)
}
