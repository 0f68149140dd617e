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
// takes effect (proving user overrides are applied last) and
// that exhaustion surfaces as the named ErrCycleBudget, still wrapping the
// core layer's sentinel.
func TestRunOneCycleBudgetError(t *testing.T) {
	_, err := RunOne("BFS", "Hu", apps.FiferPipe, false, Options{Scale: 0, Seed: 1},
		func(cfg *core.Config) { cfg.MaxCycles = 10 })
	if err == nil {
		t.Fatal("MaxCycles=10 run succeeded; override did not take effect")
	}
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want errors.Is(err, ErrCycleBudget)", err)
	}
	if !errors.Is(err, core.ErrMaxCycles) {
		t.Fatalf("err = %v, want it to still wrap core.ErrMaxCycles", err)
	}
}

// TestRunnerCapturesCycleBudgetError checks the named error also comes
// back through the worker pool's per-job capture.
func TestRunnerCapturesCycleBudgetError(t *testing.T) {
	jobs := []Job{
		{App: "BFS", Input: "Hu", Kind: apps.FiferPipe,
			Override: func(cfg *core.Config) { cfg.MaxCycles = 10 }},
		{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
	}
	results := runJobs(Options{Scale: 0, Seed: 1, Jobs: 2}, "", jobs)
	if !errors.Is(results[0].Err, ErrCycleBudget) {
		t.Fatalf("job 0 err = %v, want ErrCycleBudget", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("job 1 err = %v, want success despite job 0 failing", results[1].Err)
	}
}
