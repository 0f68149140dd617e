package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/queue"
)

// TestRunnerPanicIsolation panics one stubbed job and checks it comes back
// as a *PanicError carrying the value and a stack, while every other job's
// result is identical to a clean run of the same batch.
func TestRunnerPanicIsolation(t *testing.T) {
	stub := func(poison bool) jobFunc {
		return func(j Job, _ Options) (apps.Outcome, error) {
			if poison && j.Input == "in3" {
				panic("injected test panic")
			}
			var i int
			fmt.Sscanf(j.Input, "in%d", &i)
			return apps.Outcome{Cycles: uint64(i) * 10}, nil
		}
	}
	jobs := stubJobs(8)
	clean := runStub(Options{Jobs: 4}, jobs, stub(false))
	faulted := runStub(Options{Jobs: 4}, jobs, stub(true))

	var pe *PanicError
	if !errors.As(faulted[3].Err, &pe) {
		t.Fatalf("job 3: err = %v, want *PanicError", faulted[3].Err)
	}
	if pe.Value != "injected test panic" {
		t.Fatalf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	msg := faulted[3].Err.Error()
	if !strings.Contains(msg, "injected test panic") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("PanicError message lacks value or stack:\n%s", msg)
	}
	for i := range jobs {
		if i == 3 {
			continue
		}
		if !reflect.DeepEqual(clean[i], faulted[i]) {
			t.Fatalf("job %d differs between clean and faulted batches:\n%+v\nvs\n%+v",
				i, clean[i], faulted[i])
		}
	}
}

// TestRunnerPanicIsolationIntegration drives real simulations: job 1's
// override shrinks the queue SRAM to one token, so program build panics
// carving the first queue inside RunOne (config *validation* failures are
// structured errors now, not panics). The batch must complete with that
// one job failed and the other jobs' outcomes byte-identical to a clean
// batch.
func TestRunnerPanicIsolationIntegration(t *testing.T) {
	jobs := []Job{
		{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
		{App: "BFS", Input: "Dy", Kind: apps.FiferPipe},
		{App: "BFS", Input: "Ci", Kind: apps.FiferPipe},
	}
	opt := Options{Scale: 0, Seed: 1, Jobs: 3}
	clean := runJobs(opt, "", jobs)
	faulted := runOverriding(opt, jobs, jobs[1], func(cfg *core.Config) { cfg.QueueMemBytes = 8 })

	var pe *PanicError
	if !errors.As(faulted[1].Err, &pe) {
		t.Fatalf("poisoned job: err = %v, want *PanicError", faulted[1].Err)
	}
	if !strings.Contains(faulted[1].Err.Error(), "queue mem") {
		t.Fatalf("PanicError does not carry the allocation failure: %v", faulted[1].Err)
	}
	for _, i := range []int{0, 2} {
		if clean[i].Err != nil {
			t.Fatalf("clean job %d failed: %v", i, clean[i].Err)
		}
		if !reflect.DeepEqual(clean[i].Outcome, faulted[i].Outcome) {
			t.Fatalf("job %d outcome differs between clean and faulted batches", i)
		}
	}
}

// TestRobustnessKnobsDoNotPerturb runs the same simulation with the
// watchdog and audit at aggressive settings and fully disabled: identical
// outcomes, because both mechanisms only observe.
func TestRobustnessKnobsDoNotPerturb(t *testing.T) {
	run := func(watchdog, audit uint64) apps.Outcome {
		opt := Options{Scale: 0, Seed: 1, Override: func(cfg *core.Config) {
			cfg.WatchdogCycles, cfg.AuditCycles = watchdog, audit
		}}
		out, err := RunOne("BFS", "Hu", apps.FiferPipe, false, opt, nil)
		if err != nil {
			t.Fatalf("watchdog=%d audit=%d: %v", watchdog, audit, err)
		}
		return out
	}
	off := run(0, 0)
	aggressive := run(5000, 64)
	if !reflect.DeepEqual(off, aggressive) {
		t.Fatal("watchdog/audit settings changed simulation outcomes")
	}
}

// TestRunOneRobustnessKnobOrdering pins the override precedence:
// Options.Override applies before the per-call override, so the per-call
// override sees its values and wins.
func TestRunOneRobustnessKnobOrdering(t *testing.T) {
	var got core.Config
	opt := Options{Scale: 0, Seed: 1, Override: func(cfg *core.Config) {
		cfg.WatchdogCycles, cfg.AuditCycles = 12345, 0
	}}
	_, err := RunOne("BFS", "Hu", apps.FiferPipe, false, opt, func(cfg *core.Config) {
		if cfg.WatchdogCycles != 12345 || cfg.AuditCycles != 0 {
			t.Errorf("Options.Override not applied before the override: watchdog=%d audit=%d",
				cfg.WatchdogCycles, cfg.AuditCycles)
		}
		cfg.WatchdogCycles = 777
		got = *cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.WatchdogCycles != 777 {
		t.Fatalf("override value %d did not win", got.WatchdogCycles)
	}
}

// TestPostRunInvariantDegradesCell runs an app whose program leaves a token
// buffered as it reports completion. The end-of-run check must fail as an
// invariant violation, which degrades one cell, not as an unclassified
// error, which aborts the whole sweep.
func TestPostRunInvariantDegradesCell(t *testing.T) {
	leaky := apps.App[int]{
		Name:         "leaky",
		BackingBytes: 1 << 20,
		Build: func(sys *core.System, _ bool) (core.Program, func() int) {
			q := sys.PE(0).AllocQueue("leak", 4)
			return core.ProgramFunc(func(*core.System) bool {
				q.Enq(queue.Data(1))
				return false
			}), func() int { return 0 }
		},
		Want:  func() int { return 0 },
		Check: func(int, int) error { return nil },
	}
	_, err := apps.Run(apps.FiferPipe, 0, false, nil, nil, leaky)
	if got := ErrorClass(err); got != ClassInvariant {
		t.Fatalf("class = %q, want %q (err %v)", got, ClassInvariant, err)
	}
	if abort := abortError([]JobResult{{Err: err}}); abort != nil {
		t.Fatalf("sweep aborts on the failure: %v", abort)
	}
	if cell := degradedCell(0, ErrorClass(err)); cell != "!invariant" {
		t.Fatalf("cell renders %q, want !invariant", cell)
	}
}
