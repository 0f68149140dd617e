package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// TestRunnerEmptyBatch checks the explicit empty-batch path: a non-nil
// empty result and no progress calls.
func TestRunnerEmptyBatch(t *testing.T) {
	calls := 0
	opt := Options{Jobs: 4, Progress: func(done, total int, res JobResult) { calls++ }}
	for _, jobs := range [][]Job{nil, {}} {
		results := runStub(opt, jobs, func(Job, Options) (apps.Outcome, error) {
			t.Error("empty batch ran a job")
			return apps.Outcome{}, nil
		})
		if results == nil || len(results) != 0 {
			t.Fatalf("empty batch returned %#v, want empty non-nil slice", results)
		}
	}
	if calls != 0 {
		t.Fatalf("progress called %d times on empty batches", calls)
	}
}

// TestPanicErrorRoundTrip checks a recovered panic carries the job identity
// and unwraps to the original error chain.
func TestPanicErrorRoundTrip(t *testing.T) {
	sentinel := errors.New("boom-root")
	job := Job{App: "BFS", Input: "Rd", Kind: apps.StaticPipe, Merged: true}
	// Two jobs that differ only by a configuration field (Fig. 16's qmem
	// sweep) must panic with different messages.
	variant := Job{App: "BFS", Input: "Rd", Kind: apps.FiferPipe, QueueScale: 0.25}
	results := runStub(Options{}, []Job{job, variant}, func(Job, Options) (apps.Outcome, error) {
		panic(fmt.Errorf("kernel blew up: %w", sentinel))
	})
	res := results[0]

	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("err %v does not expose *PanicError", res.Err)
	}
	if pe.Job.Key() != job.Key() {
		t.Fatalf("panic lost its job identity: %+v", pe.Job)
	}
	var pv *PanicError
	if !errors.As(results[1].Err, &pv) || pv.Job.Key() != variant.Key() ||
		!strings.Contains(pv.Error(), "bench: simulation BFS/Rd fifer-16pe qmem=0.25x panicked") {
		t.Fatalf("variant job's panic does not name its variant: %v", results[1].Err)
	}
	if !errors.Is(res.Err, sentinel) {
		t.Fatalf("err %v does not unwrap to the panicked error", res.Err)
	}
	if got := ErrorClass(res.Err); got != ClassPanic {
		t.Fatalf("class = %q, want %q", got, ClassPanic)
	}
	for _, want := range []string{"BFS/Rd", "merged", "goroutine"} {
		if !strings.Contains(pe.Error(), want) {
			t.Fatalf("panic message lacks %q:\n%s", want, pe.Error())
		}
	}
	// Non-error panic values unwrap to nothing but still classify.
	if err := (&PanicError{Value: 42}).Unwrap(); err != nil {
		t.Fatalf("non-error panic value unwrapped to %v", err)
	}
}

// TestJobTimeout checks the per-job deadline stops a job through the
// cooperative hook and classifies it as timeout, not canceled.
func TestJobTimeout(t *testing.T) {
	start := time.Now()
	res := runStub(Options{JobTimeout: 20 * time.Millisecond}, []Job{{App: "BFS", Input: "Rn"}}, checkpointStub)[0]
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not bound the job (took %v)", elapsed)
	}
	if !errors.Is(res.Err, ErrJobTimeout) || !errors.Is(res.Err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrJobTimeout wrapping core.ErrCanceled", res.Err)
	}
	if got := ErrorClass(res.Err); got != ClassTimeout {
		t.Fatalf("class = %q, want %q", got, ClassTimeout)
	}
	want := "bench: BFS/Rn serial-ooo: bench: job exceeded its wall-clock deadline (20ms): stopped at checkpoint: " + core.ErrCanceled.Error()
	if res.Err.Error() != want {
		t.Fatalf("err text = %q, want %q", res.Err.Error(), want)
	}
}

// checkpointStub stands in for a core simulation honoring Config.Done: it
// stops when the job's context is done, or succeeds after 30 seconds.
func checkpointStub(_ Job, o Options) (apps.Outcome, error) {
	select {
	case <-o.Context.Done():
		return apps.Outcome{}, fmt.Errorf("stopped at checkpoint: %w", core.ErrCanceled)
	case <-time.After(30 * time.Second):
		return apps.Outcome{Cycles: 1}, nil
	}
}

// TestSweepCancelBeatsTimeout checks a sweep-wide cancel during a job with
// an armed (but unexpired) deadline classifies as canceled, not timeout.
func TestSweepCancelBeatsTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	res := runStub(Options{JobTimeout: time.Hour, Context: ctx}, []Job{{App: "BFS", Input: "Rn"}}, checkpointStub)[0]
	if got := ErrorClass(res.Err); got != ClassCanceled {
		t.Fatalf("class = %q (err %v), want %q", got, res.Err, ClassCanceled)
	}
}

// TestProgressContractUnderCancel pins the ProgressFunc contract while a
// sweep is canceled mid-flight: done is monotone 1..total, total is
// constant, and every job is reported exactly once — including the jobs
// skipped after the cancel.
func TestProgressContractUnderCancel(t *testing.T) {
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{App: "BFS", Input: fmt.Sprintf("in%d", i), Kind: apps.FiferPipe}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := map[string]int{}
	lastDone := 0
	var classes []string
	opt := Options{Jobs: 2, Context: ctx, Progress: func(done, total int, res JobResult) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		if done != lastDone+1 {
			t.Errorf("done jumped %d -> %d, want monotone steps of 1", lastDone, done)
		}
		lastDone = done
		seen[res.Job.Input]++
		classes = append(classes, ErrorClass(res.Err))
		if done == 3 {
			cancel()
		}
	}}
	results := runStub(opt, jobs, func(Job, Options) (apps.Outcome, error) {
		time.Sleep(5 * time.Millisecond)
		return apps.Outcome{Cycles: 1}, nil
	})

	if lastDone != n {
		t.Fatalf("done reached %d, want %d (every job reported)", lastDone, n)
	}
	for i := range jobs {
		if seen[jobs[i].Input] != 1 {
			t.Fatalf("job %s reported %d times, want exactly once", jobs[i].Input, seen[jobs[i].Input])
		}
	}
	var ok, skipped int
	for i, res := range results {
		switch ErrorClass(res.Err) {
		case ClassOK:
			ok++
		case ClassCanceled:
			skipped++
		default:
			t.Fatalf("job %d has unexpected class %q (%v)", i, ErrorClass(res.Err), res.Err)
		}
	}
	if ok < 3 || skipped == 0 {
		t.Fatalf("ok = %d skipped = %d; cancel at done=3 should leave both kinds", ok, skipped)
	}
}
