package bench

import (
	"errors"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// TestRunOneCapBeforeOverride pins the documented override ordering: the
// override sees the configuration's own cycle budget,
// core.DefaultConfig().MaxCycles, which no harness setting replaces, and
// can intentionally replace it.
func TestRunOneCapBeforeOverride(t *testing.T) {
	var seen uint64
	_, err := RunOne("BFS", "Hu", apps.FiferPipe, false, Options{Scale: 0, Seed: 1},
		func(cfg *core.Config) { seen = cfg.MaxCycles })
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultConfig().MaxCycles; seen != want {
		t.Fatalf("override saw MaxCycles=%d, want the default budget %d", seen, want)
	}
}

// TestRunOneCycleBudgetError checks that an override lowering the budget
// takes effect (proving user overrides are applied last) and that
// exhaustion surfaces as the core layer's *core.StopError for
// core.ErrMaxCycles, classed as a cycle-budget failure.
func TestRunOneCycleBudgetError(t *testing.T) {
	_, err := RunOne("BFS", "Hu", apps.FiferPipe, false, Options{Scale: 0, Seed: 1},
		func(cfg *core.Config) { cfg.MaxCycles = 10 })
	if err == nil {
		t.Fatal("MaxCycles=10 run succeeded; override did not take effect")
	}
	var se *core.StopError
	if !errors.As(err, &se) || se.Reason != core.ErrMaxCycles || se.Cycle != 10 {
		t.Fatalf("err = %v, want a *core.StopError for core.ErrMaxCycles at cycle 10", err)
	}
	if got := ErrorClass(err); got != ClassCycleBudget {
		t.Fatalf("class = %q, want %q", got, ClassCycleBudget)
	}
}

// TestRunnerCapturesCycleBudgetError checks the budget error also comes
// back through the worker pool's per-job capture.
func TestRunnerCapturesCycleBudgetError(t *testing.T) {
	jobs := []Job{
		{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
		{App: "BFS", Input: "Dy", Kind: apps.FiferPipe},
	}
	results := runOverriding(Options{Scale: 0, Seed: 1, Jobs: 2}, jobs, jobs[0],
		func(cfg *core.Config) { cfg.MaxCycles = 10 })
	if !errors.Is(results[0].Err, core.ErrMaxCycles) {
		t.Fatalf("job 0 err = %v, want core.ErrMaxCycles", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("job 1 err = %v, want success despite job 0 failing", results[1].Err)
	}
}

// runOverriding is runJobs with override applied last to the job equal to
// target, through the job-function seam runJobs itself uses.
func runOverriding(opt Options, jobs []Job, target Job, override func(*core.Config)) []JobResult {
	inputs := &inputStore{}
	return runWith(opt, jobs, inputs, func(j Job, opt Options) (apps.Outcome, error) {
		if j != target {
			return j.run(opt, "", inputs, nil)
		}
		return j.run(opt, "", inputs, override)
	})
}
