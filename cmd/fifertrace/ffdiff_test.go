package main

import (
	"reflect"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/core"
	"fifer/internal/trace"
)

// wdEvery is the watchdog window the differential runs pin checkpoints to —
// small enough that a scale-0 run crosses it many times, but wider than the
// longest genuine memory-stall episode so the watchdog never trips.
const wdEvery = 2048

// tracedRun simulates BFS at scale 0 with tracing and a tight watchdog,
// either under the default event-horizon fast-forward or the naive
// per-cycle oracle loop, and returns the captured event stream.
func tracedRun(t *testing.T, oracle bool) trace.JobTrace {
	t.Helper()
	opt := bench.Options{
		Scale: 0,
		Seed:  1,
		Trace: &bench.TraceSink{SampleCycles: 512, BufEvents: 1 << 17},
		Override: func(cfg *core.Config) {
			cfg.WatchdogCycles = wdEvery
			cfg.NoFastForward = oracle
		},
	}
	if _, err := bench.RunOne("BFS", bench.InputsOf("BFS")[0], apps.FiferPipe, false, opt, nil); err != nil {
		t.Fatal(err)
	}
	jobs := opt.Trace.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("traced %d job(s), want 1", len(jobs))
	}
	if d := jobs[0].Collector.Dropped(); d != 0 {
		t.Fatalf("event ring dropped %d event(s); raise BufEvents so the comparison sees whole runs", d)
	}
	return trace.JobTrace{Name: jobs[0].Key, Events: jobs[0].Collector.Events()}
}

// TestSummaryFastForwardMatchesOracle runs the same simulation under
// fast-forward and under the oracle loop and digests both with summarize():
// the summaries — stall-episode pairings, reconfiguration histogram, stage
// residency, DRM and checkpoint totals — must be identical, and so must the
// raw event streams they were built from. This pins the tool-level view of
// the fast-forward equivalence contract: what fifertrace tells a user about
// a run cannot depend on which loop simulated it.
func TestSummaryFastForwardMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fast := tracedRun(t, false)
	oracle := tracedRun(t, true)

	if !reflect.DeepEqual(fast.Events, oracle.Events) {
		t.Errorf("fast-forward event stream differs from oracle: %d vs %d event(s)",
			len(fast.Events), len(oracle.Events))
	}
	sf, so := summarize(fast), summarize(oracle)
	if !reflect.DeepEqual(sf, so) {
		t.Errorf("summaries diverge:\nfast:   %+v\noracle: %+v", sf, so)
	}

	// The comparison must not pass vacuously: the run has to exercise the
	// pairing logic (queue back-pressure episodes) and the watchdog.
	if sf.events == 0 {
		t.Fatal("traced run captured no events")
	}
	if len(sf.stalls) == 0 {
		t.Error("no stall episodes paired; pick a run with queue back-pressure")
	}
	if sf.checkpoints == 0 {
		t.Error("no watchdog checkpoints in trace")
	}
}

// TestCheckpointCadenceSurvivesFastForward pins the watchdog checkpoint
// events themselves: under fast-forward every checkpoint must still land
// exactly on the watchdog grid with the same progress signature (Arg =
// cumulative firings) the naive loop records, because fast-forward clamps
// each jump to the next observation boundary rather than skipping it.
func TestCheckpointCadenceSurvivesFastForward(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	checkpoints := func(jt trace.JobTrace) []trace.Event {
		var out []trace.Event
		for _, e := range jt.Events {
			if e.Kind == trace.KindCheckpoint {
				out = append(out, e)
			}
		}
		return out
	}
	fast := checkpoints(tracedRun(t, false))
	oracle := checkpoints(tracedRun(t, true))
	if len(fast) == 0 {
		t.Fatal("fast-forward run emitted no checkpoints")
	}
	if !reflect.DeepEqual(fast, oracle) {
		t.Fatalf("checkpoint events diverge: fast-forward %d, oracle %d", len(fast), len(oracle))
	}
	// The watchdog checkpoints at half its window so a hang is caught within
	// one window; the grid is therefore wdEvery/2.
	for _, e := range fast {
		if e.Cycle%(wdEvery/2) != 0 {
			t.Errorf("checkpoint at cycle %d is off the %d-cycle watchdog grid", e.Cycle, wdEvery/2)
		}
	}
	for i := 1; i < len(fast); i++ {
		if fast[i].Arg < fast[i-1].Arg {
			t.Errorf("checkpoint progress signature went backwards: %d then %d", fast[i-1].Arg, fast[i].Arg)
		}
	}
}
