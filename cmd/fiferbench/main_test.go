package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fifer"
	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/core"
)

// TestConfigOverride pins the mapping from -watchdog, -audit and
// -no-fast-forward to the configuration: a cycle flag of 0 keeps
// DefaultConfig's value, -1 disables the mechanism (0 in the config), and
// N sets N.
func TestConfigOverride(t *testing.T) {
	def := fifer.DefaultConfig()
	for _, tc := range []struct {
		name            string
		watchdog, audit int64
		noFastForward   bool
		wantWatchdog    uint64
		wantAudit       uint64
	}{
		{"defaults", 0, 0, false, def.WatchdogCycles, def.AuditCycles},
		{"disable both", -1, -1, false, 0, 0},
		{"set both", 250000, 256, false, 250000, 256},
		{"disable watchdog only", -1, 0, false, 0, def.AuditCycles},
		{"set audit only", 0, 64, false, def.WatchdogCycles, 64},
		{"no fast-forward", 0, 0, true, def.WatchdogCycles, def.AuditCycles},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fifer.DefaultConfig()
			configOverride(tc.watchdog, tc.audit, tc.noFastForward)(&cfg)
			if cfg.WatchdogCycles != tc.wantWatchdog {
				t.Errorf("-watchdog %d: WatchdogCycles = %d, want %d", tc.watchdog, cfg.WatchdogCycles, tc.wantWatchdog)
			}
			if cfg.AuditCycles != tc.wantAudit {
				t.Errorf("-audit %d: AuditCycles = %d, want %d", tc.audit, cfg.AuditCycles, tc.wantAudit)
			}
			if cfg.NoFastForward != tc.noFastForward {
				t.Errorf("-no-fast-forward=%v: NoFastForward = %v", tc.noFastForward, cfg.NoFastForward)
			}
			want := cfg
			want.WatchdogCycles, want.AuditCycles, want.NoFastForward = def.WatchdogCycles, def.AuditCycles, def.NoFastForward
			if want != def {
				t.Errorf("the override changed a field no flag names")
			}
		})
	}
}

// TestFailureLine pins the stderr line a failed sweep job gets: key, stop
// reason and cycle, the first wait-for edge, and a rerun command carrying
// the flags that change the outcome; an error that is not a stop report
// contributes its first line.
func TestFailureLine(t *testing.T) {
	job := bench.Job{App: "BFS", Input: "Hu", Kind: apps.FiferPipe, QueueScale: 0.25}
	stop := &fifer.StopError{Reason: fifer.ErrDeadlock, Cycle: 4, Detail: "no progress",
		WaitFor: []core.WaitEdge{
			{Waiter: "pe0.drm0", WaitsOn: "memory", Reason: "1 accesses in flight"},
			{Waiter: "pe1.drm0", WaitsOn: "memory", Reason: "2 accesses in flight"},
		}, Dump: "cycle 4\npe0 ..."}
	for _, tc := range []struct {
		name  string
		err   error
		rerun string
		want  string
	}{
		{"deadlock", fmt.Errorf("fifer-16pe bfs: %w", stop), rerunCommand(0, 1, 4, 0),
			"fiferbench: BFS/Hu fifer-16pe qmem=0.25x failed: core: simulation deadlocked (watchdog) at cycle 4, " +
				"wait-for: pe0.drm0 -> memory (1 accesses in flight); " +
				"rerun: fiferbench -scale 0 -seed 1 -watchdog 4 -job 'BFS/Hu fifer-16pe qmem=0.25x'"},
		{"no edges", &fifer.StopError{Reason: fifer.ErrMaxCycles, Cycle: 10}, rerunCommand(1, 7, 0, -1),
			"fiferbench: BFS/Hu fifer-16pe qmem=0.25x failed: " + fifer.ErrMaxCycles.Error() + " at cycle 10; " +
				"rerun: fiferbench -scale 1 -seed 7 -audit -1 -job 'BFS/Hu fifer-16pe qmem=0.25x'"},
		{"other", errors.New("queue mem exhausted\ngoroutine 1"), rerunCommand(0, 1, 0, 0),
			"fiferbench: BFS/Hu fifer-16pe qmem=0.25x failed: queue mem exhausted; " +
				"rerun: fiferbench -scale 0 -seed 1 -job 'BFS/Hu fifer-16pe qmem=0.25x'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := failureLine(bench.JobResult{Job: job, Err: tc.err}, tc.rerun)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
			if strings.Contains(got, "\n") {
				t.Errorf("the line spans several lines: %q", got)
			}
		})
	}
}
