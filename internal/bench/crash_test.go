package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// TestRunnerEmptyBatch checks the explicit empty-batch path: a non-nil
// empty result, no progress calls, nothing journaled.
func TestRunnerEmptyBatch(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	r := Runner{
		Workers:  4,
		Progress: func(done, total int, res JobResult) { calls++ },
		run: func(Job, Options) (apps.Outcome, error) {
			t.Error("empty batch ran a job")
			return apps.Outcome{}, nil
		},
	}
	for _, jobs := range [][]Job{nil, {}} {
		results := r.Run(Options{Journal: j}, jobs)
		if results == nil || len(results) != 0 {
			t.Fatalf("empty batch returned %#v, want empty non-nil slice", results)
		}
	}
	if calls != 0 {
		t.Fatalf("progress called %d times on empty batches", calls)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := ResumeJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Replayed() != 0 {
		t.Fatal("empty batch journaled records")
	}
}

// TestPanicErrorRoundTrip checks a recovered panic carries the job identity
// and unwraps to the original error chain.
func TestPanicErrorRoundTrip(t *testing.T) {
	sentinel := errors.New("boom-root")
	r := Runner{Workers: 1, run: func(Job, Options) (apps.Outcome, error) {
		panic(fmt.Errorf("kernel blew up: %w", sentinel))
	}}
	job := Job{App: "BFS", Input: "Rd", Kind: apps.StaticPipe, Merged: true}
	// Two jobs that differ only by variant (Fig. 16's qmem sweep) must
	// panic with different messages.
	variant := Job{App: "BFS", Input: "Rd", Kind: apps.FiferPipe, Variant: "qmem=0.25x"}
	results := r.Run(Options{}, []Job{job, variant})
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
	r := Runner{Workers: 1, run: func(_ Job, o Options) (apps.Outcome, error) {
		// Stand-in for a core simulation honoring Config.Done.
		select {
		case <-o.Cancel:
			return apps.Outcome{}, fmt.Errorf("stopped at checkpoint: %w", core.ErrCanceled)
		case <-time.After(30 * time.Second):
			return apps.Outcome{Cycles: 1}, nil
		}
	}}
	start := time.Now()
	res := r.Run(Options{JobTimeout: 20 * time.Millisecond}, []Job{{App: "BFS", Input: "Rn"}})[0]
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not bound the job (took %v)", elapsed)
	}
	if !errors.Is(res.Err, ErrJobTimeout) || !errors.Is(res.Err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrJobTimeout wrapping core.ErrCanceled", res.Err)
	}
	if got := ErrorClass(res.Err); got != ClassTimeout {
		t.Fatalf("class = %q, want %q", got, ClassTimeout)
	}
	if res.Attempts != 1 {
		t.Fatalf("timed-out job reports %d attempts, want 1", res.Attempts)
	}
}

// TestSweepCancelBeatsTimeout checks a sweep-wide cancel during a job with
// an armed (but unexpired) deadline classifies as canceled, not timeout.
func TestSweepCancelBeatsTimeout(t *testing.T) {
	cancel := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(cancel) })
	r := Runner{Workers: 1, run: func(_ Job, o Options) (apps.Outcome, error) {
		select {
		case <-o.Cancel:
			return apps.Outcome{}, fmt.Errorf("stopped at checkpoint: %w", core.ErrCanceled)
		case <-time.After(30 * time.Second):
			return apps.Outcome{Cycles: 1}, nil
		}
	}}
	res := r.Run(Options{JobTimeout: time.Hour, Cancel: cancel}, []Job{{App: "BFS", Input: "Rn"}})[0]
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
	cancel := make(chan struct{})
	var once sync.Once
	seen := map[string]int{}
	lastDone := 0
	var classes []string
	r := Runner{
		Workers: 2,
		Progress: func(done, total int, res JobResult) {
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
				once.Do(func() { close(cancel) })
			}
		},
		run: func(Job, Options) (apps.Outcome, error) {
			time.Sleep(5 * time.Millisecond)
			return apps.Outcome{Cycles: 1}, nil
		},
	}
	results := r.Run(Options{Cancel: cancel}, jobs)

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
			if res.Attempts != 0 {
				t.Fatalf("skipped job %d reports %d attempts, want 0", i, res.Attempts)
			}
		default:
			t.Fatalf("job %d has unexpected class %q (%v)", i, ErrorClass(res.Err), res.Err)
		}
	}
	if ok < 3 || skipped == 0 {
		t.Fatalf("ok = %d skipped = %d; cancel at done=3 should leave both kinds", ok, skipped)
	}
}
