package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// Job describes one simulation: the same tuple RunOne accepts, plus the
// label of the configuration variant its Override sets. Experiment drivers
// enumerate their full job list up front and hand it to runJobs, so the
// (app × input × system) sweeps that dominate regeneration time can fan
// out across cores.
type Job struct {
	App, Input string
	Kind       apps.SystemKind
	Merged     bool
	// Variant names what Override changes ("qmem=0.25x", "zero-cost"), so
	// jobs that differ only in their override stay apart in error and
	// progress text and in a TraceSink. Empty for the default config.
	Variant  string
	Override func(*core.Config)
}

// Key renders the job's identity, as errors, progress lines and trace keys
// show it: "BFS/Hu fifer-16pe", then "merged" and the variant if set.
func (j Job) Key() string {
	s := j.App + "/" + j.Input + " " + j.Kind.String()
	if j.Merged {
		s += " merged"
	}
	if j.Variant != "" {
		s += " " + j.Variant
	}
	return s
}

// traceKey names the job in a TraceSink: its Key, after the label of the
// sweep that ran it, since one sink can see the same job in several sweeps
// (Fig. 13 and Fig. 16's baseline under fiferbench -exp all).
func (j Job) traceKey(sweep string) string {
	if sweep == "" {
		return j.Key()
	}
	return sweep + " " + j.Key()
}

// JobResult pairs a job with its outcome. Exactly one of Outcome/Err is
// meaningful: a failed simulation carries its error here instead of
// aborting the batch, so one bad configuration cannot take down or reorder
// the rest of a sweep.
type JobResult struct {
	Job     Job
	Outcome apps.Outcome
	Err     error
}

// ProgressFunc observes job completions. done counts completed jobs
// (1..total); calls are serialized, but arrive in completion order, not
// submission order. Every job is reported exactly once — including jobs
// canceled mid-run or skipped because the sweep was canceled before they
// started — so done always reaches total.
type ProgressFunc func(done, total int, res JobResult)

// jobFunc runs one job of a sweep. runJobs runs the job's simulation;
// tests substitute a fake through runWith.
type jobFunc func(Job, Options) (apps.Outcome, error)

// runJobs runs a driver's sweep on opt.Jobs workers (<= 1 is serial) and
// returns one JobResult per job, index-aligned with jobs. sweep labels the
// jobs in a TraceSink (e.g. "fig13"), so one sink can hold the same job
// from several drivers.
//
// Results come back in submission order regardless of completion order,
// and a parallel run's outcomes are bit-identical to a serial run's: every
// simulation owns its state (RNG, caches, queues, backing store), and the
// only thing jobs share is their inputs, which the sweep builds once, on
// first use, and only reads (see inputStore). The determinism test in
// determinism_test.go pins this down.
//
// Two Options fields bound a sweep: Context stops it cooperatively and
// JobTimeout bounds each job's wall-clock time. Neither changes any result
// when unused. A job runs once: every simulation is deterministic, so a
// retry would fail the same way again.
func runJobs(opt Options, sweep string, jobs []Job) []JobResult {
	inputs := &inputStore{}
	return runWith(opt, jobs, inputs, func(j Job, opt Options) (apps.Outcome, error) {
		return j.run(opt, sweep, inputs)
	})
}

// runWith is runJobs with the sweep's input store and job function. It
// always returns every job: errors are captured per job, never
// short-circuited, and when the sweep is canceled the jobs that never
// started still come back, carrying a canceled error. Every job holds a
// reference to its input from the start of the sweep until it finishes,
// however it finishes, so the store is empty when runWith returns.
func runWith(opt Options, jobs []Job, inputs *inputStore, run jobFunc) []JobResult {
	if len(jobs) == 0 {
		// Explicit empty-batch path: nothing to clamp workers against,
		// no Progress calls.
		return []JobResult{}
	}
	workers := min(max(opt.Jobs, 1), len(jobs))
	// A panicking job must not take down (or reorder) the batch: recover it
	// into a per-job *PanicError and keep going.
	run = protect(run)

	results := make([]JobResult, len(jobs))
	var progressMu sync.Mutex
	done := 0
	finish := func(i int, res JobResult) {
		results[i] = res
		if opt.Progress != nil {
			progressMu.Lock()
			done++
			opt.Progress(done, len(jobs), results[i])
			progressMu.Unlock()
		}
	}

	keys := make([]inputKey, len(jobs))
	for i := range jobs {
		keys[i] = jobs[i].inputKey(opt)
		inputs.acquire(keys[i])
	}

	runJob := func(i int) {
		defer inputs.release(keys[i])
		if opt.context().Err() != nil {
			// Stopped admitting work: the job is reported as
			// canceled-before-start.
			finish(i, JobResult{Job: jobs[i], Err: fmt.Errorf(
				"bench: %s skipped: sweep canceled before it started: %w", jobs[i].Key(), core.ErrCanceled)})
			return
		}
		out, err := attempt(jobs[i], opt, run)
		finish(i, JobResult{Job: jobs[i], Outcome: out, Err: err})
	}

	if workers == 1 {
		for i := range jobs {
			runJob(i)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// attempt runs the job once, under a context that also carries the
// per-job wall-clock deadline when opt.JobTimeout is set.
func attempt(j Job, opt Options, run jobFunc) (apps.Outcome, error) {
	if opt.JobTimeout <= 0 {
		return run(j, opt)
	}
	ctx, cancel := context.WithTimeoutCause(opt.context(), opt.JobTimeout, ErrJobTimeout)
	defer cancel()
	jobOpt := opt
	jobOpt.Context = ctx
	out, err := run(j, jobOpt)
	// The cause tells the deadline apart from a sweep-wide cancel, which
	// the job's context inherits with the parent's cause.
	if err != nil && errors.Is(context.Cause(ctx), ErrJobTimeout) && errors.Is(err, core.ErrCanceled) {
		err = fmt.Errorf("bench: %s: %w (%v): %w", j.Key(), ErrJobTimeout, opt.JobTimeout, err)
	}
	return out, err
}

// firstError returns the first failed result in submission order, or nil.
func firstError(results []JobResult) *JobResult {
	for i := range results {
		if results[i].Err != nil {
			return &results[i]
		}
	}
	return nil
}
