package core

import (
	"errors"
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

// TestRunCanceledBeforeStart closes Done before Run: the run must stop
// before simulating a single cycle, with the structured report intact.
func TestRunCanceledBeforeStart(t *testing.T) {
	cfg := testConfig(1)
	done := make(chan struct{})
	close(done)
	cfg.Done = done
	sys, q := cancelSystem(cfg)
	_, err := sys.Run(endlessProgram(q))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err chain %v carries no *CanceledError", err)
	}
	if ce.Cycle != 0 || sys.Cycle != 0 {
		t.Fatalf("pre-start cancellation simulated %d cycles (report says %d), want 0", sys.Cycle, ce.Cycle)
	}
}

// TestRunCanceledMidRun closes Done from a per-cycle hook at a chosen
// trigger cycle and checks Run stops within one checkpoint interval,
// carrying the stop cycle and a state excerpt.
func TestRunCanceledMidRun(t *testing.T) {
	const trigger = 1000
	for _, tc := range []struct {
		name     string
		watchdog uint64
		latency  uint64 // max cycles from trigger to observation
	}{
		{"watchdog-cadence", 2000, 1000},    // checkpoint every window/2
		{"watchdog-disabled", 0, 65536 + 1}, // fallback polling interval
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.WatchdogCycles = tc.watchdog
			done := make(chan struct{})
			cfg.Done = done
			sys, q := cancelSystem(cfg)
			sys.OnCycle(func(_ *System, now uint64) {
				if now == trigger {
					close(done)
				}
			})
			_, err := sys.Run(endlessProgram(q))
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err chain %v carries no *CanceledError", err)
			}
			if ce.Cycle < trigger || ce.Cycle > trigger+tc.latency {
				t.Fatalf("canceled at cycle %d, want within %d cycles of trigger %d",
					ce.Cycle, tc.latency, trigger)
			}
			if ce.Summary == "" {
				t.Fatal("CanceledError carries no state summary")
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
