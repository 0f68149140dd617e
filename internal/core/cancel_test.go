package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fifer/internal/queue"
	"fifer/internal/stage"
)

// cancelSystem builds a single-PE pipeline whose program never completes:
// the sink keeps draining, the program keeps refilling, so only MaxCycles
// or cancellation can end the run.
func cancelSystem(cfg Config) (*System, *queue.Queue) {
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	q1 := pe.AllocQueue("q1", 64)
	q2 := pe.AllocQueue("q2", 64)
	got := 0
	pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
	pe.AddStage(sinkStage("sink", stage.LocalIn(q2), &got))
	return sys, q1
}

func endlessProgram(q *queue.Queue) Program {
	return ProgramFunc(func(*System) bool {
		for j := 0; j < 50; j++ {
			q.Enq(queue.Data(uint64(j)))
		}
		return true
	})
}

// stopError checks that err is a *StopError whose Reason is reason, the
// shape of every error Run returns, and returns it.
func stopError(t *testing.T, err, reason error) *StopError {
	t.Helper()
	var se *StopError
	if !errors.As(err, &se) || se.Reason != reason {
		t.Fatalf("err = %v, want a *StopError for %v", err, reason)
	}
	return se
}

// TestRunCanceledBeforeStart closes Done before Run: the run must stop
// before simulating a single cycle, with the structured report intact.
func TestRunCanceledBeforeStart(t *testing.T) {
	cfg := testConfig(1)
	done := make(chan struct{})
	close(done)
	cfg.Done = done
	sys, q := cancelSystem(cfg)
	_, err := sys.Run(endlessProgram(q))
	if se := stopError(t, err, ErrCanceled); se.Cycle != 0 || sys.Cycle != 0 {
		t.Fatalf("pre-start cancellation simulated %d cycles (report says %d), want 0", sys.Cycle, se.Cycle)
	}
}

// TestRunCanceledMidRun closes Done from the program at the first
// quiescence at or after a trigger cycle and checks that Run stops at the
// first multiple of cancelInterval at or after the close, whatever the
// watchdog and kernel, carrying the stop cycle and a state excerpt.
// Closing from the program, not an OnCycle hook, keeps the parking kernel
// free to park and jump.
func TestRunCanceledMidRun(t *testing.T) {
	const trigger = 100_000
	for _, tc := range []struct {
		name     string
		watchdog uint64
	}{
		{"watchdog-enabled", DefaultConfig().WatchdogCycles},
		{"watchdog-disabled", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, oracle := range []bool{false, true} {
				t.Run(fmt.Sprintf("oracle=%v", oracle), func(t *testing.T) {
					cfg := testConfig(1)
					cfg.WatchdogCycles = tc.watchdog
					cfg.NoFastForward = oracle
					done := make(chan struct{})
					cfg.Done = done
					sys, q := cancelSystem(cfg)
					closedAt := uint64(0)
					refill := endlessProgram(q)
					_, err := sys.Run(ProgramFunc(func(s *System) bool {
						if closedAt == 0 && s.Cycle >= trigger {
							closedAt = s.Cycle
							close(done)
						}
						return refill.Quiesced(s)
					}))
					se := stopError(t, err, ErrCanceled)
					if want := (closedAt + cancelInterval - 1) / cancelInterval * cancelInterval; se.Cycle != want {
						t.Fatalf("Done closed at cycle %d, run stopped at %d, want %d", closedAt, se.Cycle, want)
					}
					if se.Dump == "" {
						t.Fatal("StopError carries no state dump")
					}
				})
			}
		})
	}
}

// TestDoneUnusedDoesNotPerturb pins the zero-overhead claim's observable
// half: a run with Done nil and a run with Done set but never closed
// produce bit-identical results.
func TestDoneUnusedDoesNotPerturb(t *testing.T) {
	run := func(done <-chan struct{}) (Result, uint64) {
		cfg := testConfig(1)
		cfg.Done = done
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		q1 := pe.AllocQueue("q1", 64)
		q2 := pe.AllocQueue("q2", 64)
		got := 0
		pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
		pe.AddStage(sinkStage("sink", stage.LocalIn(q2), &got))
		rounds := 0
		res, err := sys.Run(ProgramFunc(func(*System) bool {
			rounds++
			if rounds > 5 {
				return false
			}
			for j := 0; j < 50; j++ {
				q1.Enq(queue.Data(uint64(j)))
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Cycle
	}
	resNil, cycNil := run(nil)
	resArmed, cycArmed := run(make(chan struct{}))
	if cycNil != cycArmed || !reflect.DeepEqual(resNil, resArmed) {
		t.Fatalf("armed-but-unused Done changed the run:\nnil:   %d cycles %+v\narmed: %d cycles %+v",
			cycNil, resNil, cycArmed, resArmed)
	}
}
