package bench

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/apps/silo"
	"fifer/internal/core"
	"fifer/internal/trace"
)

// This file is the harness-level half of the fast-forward equivalence
// contract (DESIGN.md §10): every simulation surface the harness exports —
// outcomes, trace events, metrics rows, goldens, journals — must be
// byte-identical whether the core runs the naive per-cycle loop
// (Options.NoFastForward, the oracle) or the event-horizon fast-forward
// that is on by default. The core-level differential suite lives in
// internal/core/horizon_test.go; these tests pin the same equivalence
// through the full application stack.

// ffJobs is the standard differential job list: every app's first input on
// both pipelined CGRA systems.
func ffJobs() []Job {
	var jobs []Job
	for _, app := range AppNames {
		input := InputsOf(app)[0]
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe})
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.StaticPipe})
	}
	return jobs
}

// TestFastForwardMatchesOracleApps runs every app against the oracle:
// fast-forward and naive-loop sweeps must produce DeepEqual outcomes, with
// tracing off and on and at -j 1 and -j NumCPU. With tracing on, the two
// modes must also capture identical event streams and metrics rows — the
// strongest harness-level statement that fast-forward skips only cycles in
// which nothing observable happens.
func TestFastForwardMatchesOracleApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep")
	}
	jobs := ffJobs()
	base := Options{Scale: 0, Seed: 1}

	run := func(oracle, traced bool, workers int) ([]JobResult, *TraceSink) {
		opt := base
		opt.NoFastForward = oracle
		if traced {
			opt.Trace = &TraceSink{SampleCycles: 512, BufEvents: 1 << 14}
		}
		return Runner{Workers: workers}.Run(opt, jobs), opt.Trace
	}

	for _, tc := range []struct {
		name    string
		traced  bool
		workers int
	}{
		{"untraced-j1", false, 1},
		{"untraced-jN", false, runtime.NumCPU()},
		{"traced-j1", true, 1},
		{"traced-jN", true, runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, fastSink := run(false, tc.traced, tc.workers)
			oracle, oracleSink := run(true, tc.traced, tc.workers)
			for i, j := range jobs {
				if fast[i].Err != nil {
					t.Fatalf("%s fast-forward: %v", j.key(), fast[i].Err)
				}
				if oracle[i].Err != nil {
					t.Fatalf("%s oracle: %v", j.key(), oracle[i].Err)
				}
				if !reflect.DeepEqual(fast[i].Outcome, oracle[i].Outcome) {
					t.Errorf("%s: fast-forward outcome differs from naive loop\nfast:   %+v\noracle: %+v",
						j.key(), fast[i].Outcome, oracle[i].Outcome)
				}
			}
			if !tc.traced {
				return
			}
			fj, oj := fastSink.Jobs(), oracleSink.Jobs()
			if len(fj) == 0 || len(fj) != len(oj) {
				t.Fatalf("traced job counts: fast=%d oracle=%d", len(fj), len(oj))
			}
			for i := range fj {
				if fj[i].Key != oj[i].Key {
					t.Fatalf("traced job keys diverge: %q vs %q", fj[i].Key, oj[i].Key)
				}
				if fj[i].Collector.Len() == 0 {
					t.Errorf("%s: traced run captured no events", fj[i].Key)
				}
				if !reflect.DeepEqual(fj[i].Collector.Events(), oj[i].Collector.Events()) {
					t.Errorf("%s: fast-forward event stream differs from naive loop", fj[i].Key)
				}
				if !reflect.DeepEqual(fj[i].Collector.Rows(), oj[i].Collector.Rows()) {
					t.Errorf("%s: fast-forward metrics rows differ from naive loop", fj[i].Key)
				}
			}
		})
	}
}

// TestGoldenFig13WithOracle re-renders the Fig. 13 golden with the naive
// per-cycle loop: the committed golden was produced under fast-forward, so a
// byte-for-byte match proves the two execution modes agree on every number
// the paper reports.
func TestGoldenFig13WithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.NoFastForward = true
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
}

// TestFastForwardJournalBytesIdentical journals the same sweep once under
// fast-forward and once under the oracle: the two journals must hold the
// same header and records byte for byte, CRCs included, in whatever order
// the jobs completed. Journal records carry no wall-clock fields, so any
// divergence means fast-forward changed a simulated result.
func TestFastForwardJournalBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := goldenOpt("BFS", "SpMM")
	fast := journalFig13(t, filepath.Join(dir, "fast.jsonl"), opt)
	opt.NoFastForward = true
	oracle := journalFig13(t, filepath.Join(dir, "oracle.jsonl"), opt)
	checkSameJournal(t, "fast-forward", fast, "oracle", oracle)
}

// The two Shard tests below keep the names of the multi-shard kernel they
// first compared against the sequential one; that kernel's per-PE parking
// is now part of the default kernel, which settles every parked PE at each
// observation boundary (metrics sample, audit, watchdog checkpoint). They
// pin that settling, however often it happens, never changes a result.

// TestGoldenFig13Sharded re-renders the Fig. 13 golden with the live audit
// every 64 cycles and the watchdog every 5000, so the kernel settles parked
// PEs far more often than under the defaults that produced the golden.
func TestGoldenFig13Sharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.AuditCycles = 64
	opt.WatchdogCycles = 5000
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
}

// TestShardJournalBytesIdentical journals the same sweep with default
// observation and with metrics sampled every 64 cycles plus a 64-cycle
// audit: the two journals must hold the same header and records byte for
// byte, CRCs included.
func TestShardJournalBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := goldenOpt("BFS", "SpMM")
	base := journalFig13(t, filepath.Join(dir, "default.jsonl"), opt)
	opt.Trace = &TraceSink{SampleCycles: 64, BufEvents: 1 << 10}
	opt.AuditCycles = 64
	tight := journalFig13(t, filepath.Join(dir, "tight.jsonl"), opt)
	checkSameJournal(t, "tight observation", tight, "default", base)
	if len(opt.Trace.Jobs()) == 0 {
		t.Fatal("sweep with TraceSink captured nothing")
	}
}

// TestSiloMatchesOracle pins the one cyclic pipeline, whose in-flight
// gate is released by a stage on another PE in static mode and on the
// same PE in Fifer mode: static and Fifer, decoupled and merged, at scales
// 0–2 (0–1 under -short), the parking kernel's outcome must be DeepEqual
// to the naive loop's.
func TestSiloMatchesOracle(t *testing.T) {
	scales := []int{0, 1, 2}
	if testing.Short() {
		scales = scales[:2]
	}
	input := InputsOf(silo.Name)[0]
	for _, scale := range scales {
		for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
			for _, merged := range []bool{false, true} {
				t.Run(fmt.Sprintf("scale%d/%v/merged=%v", scale, kind, merged), func(t *testing.T) {
					var outs [2]apps.Outcome
					for i, oracle := range []bool{false, true} {
						col := trace.NewCollector(1)
						opt := Options{Scale: scale, Seed: 1, NoFastForward: oracle}
						out, err := RunOne(silo.Name, input, kind, merged, opt, func(cfg *core.Config) {
							cfg.Metrics = col
						})
						if err != nil {
							t.Fatalf("oracle=%v: %v", oracle, err)
						}
						outs[i] = out
						if !oracle {
							t.Logf("ticked %.1f%% of PE-cycles", 100*col.Kernel().ExecutedShare())
						}
					}
					if !reflect.DeepEqual(outs[0], outs[1]) {
						t.Errorf("parking outcome differs from naive loop\nfast:   %+v\noracle: %+v", outs[0], outs[1])
					}
				})
			}
		}
	}
}

// siloShareCap bounds the share of PE-cycles the parking kernel executes
// on Silo at scale 0. Silo's PEs once ticked after every firing anywhere
// (43% on Fifer); a gate the kernel can see brings the share to the graph
// apps' level, and a reintroduced polling path would break this bound.
const siloShareCap = 0.15

// TestKernelStatsApps checks the kernel counters on every app at scale 0:
// they describe the run the outcome reports, the ticks executed never
// exceed PEs×Cycles (so the parked count, PEs×Cycles − ticks, is well
// defined), the default kernel parks a share of the PE-cycles (below
// siloShareCap executed on Silo), and the oracle parks and jumps nothing.
// Each default-kernel job also runs through a TraceSink, whose collector
// must report the same counters: fiferbench's stderr kernel line reads them
// from there.
func TestKernelStatsApps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every app twice")
	}
	for _, j := range ffJobs() {
		for _, oracle := range []bool{false, true} {
			opt := Options{Scale: 0, Seed: 1, NoFastForward: oracle}
			col := trace.NewCollector(1)
			out, err := RunOne(j.App, j.Input, j.Kind, false, opt, func(cfg *core.Config) {
				cfg.Metrics = col
			})
			if err != nil {
				t.Fatalf("%s oracle=%v: %v", j.key(), oracle, err)
			}
			k := col.Kernel()
			total := uint64(k.PEs) * k.Cycles
			switch {
			case k.Cycles != out.Cycles || k.PEs != len(out.Pipe.Stacks):
				t.Errorf("%s oracle=%v: counters cover %d PEs × %d cycles, run had %d × %d",
					j.key(), oracle, k.PEs, k.Cycles, len(out.Pipe.Stacks), out.Cycles)
			case k.Ticks > total || k.Jumped > k.Cycles:
				t.Errorf("%s oracle=%v: %d ticks and %d jumped cycles in %d PE-cycles",
					j.key(), oracle, k.Ticks, k.Jumped, total)
			case oracle && (k.Parked() != 0 || k.Jumped != 0 || k.CatchUps != 0):
				t.Errorf("%s oracle: parked %d, jumped %d, caught up %d; want all zero",
					j.key(), k.Parked(), k.Jumped, k.CatchUps)
			case !oracle && (k.Parked() == 0 || k.CatchUps == 0):
				t.Errorf("%s: parked %d PE-cycles with %d catch-ups; want both positive",
					j.key(), k.Parked(), k.CatchUps)
			case !oracle && j.App == silo.Name && k.ExecutedShare() >= siloShareCap:
				t.Errorf("%s: executed %.1f%% of PE-cycles, want below %.0f%%",
					j.key(), 100*k.ExecutedShare(), 100*siloShareCap)
			}
			if oracle {
				continue
			}
			t.Logf("%s: ticked %.1f%% of %d PE-cycles, jumped %d cycles, %d catch-ups",
				j.key(), 100*k.ExecutedShare(), total, k.Jumped, k.CatchUps)
			sink := NewTraceSink(0)
			opt.Trace = sink
			if _, err := RunOne(j.App, j.Input, j.Kind, false, opt, nil); err != nil {
				t.Fatalf("%s traced: %v", j.key(), err)
			}
			traced := sink.Jobs()
			if len(traced) != 1 || traced[0].Key != j.key() {
				t.Errorf("%s: trace sink holds %d job(s), want this one alone", j.key(), len(traced))
			} else if got := traced[0].Collector.Kernel(); got != k {
				t.Errorf("%s: trace sink reports kernel counters %+v, direct collector %+v", j.key(), got, k)
			}
		}
	}
}
