package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// Job describes one simulation: the same tuple RunOne accepts, plus the
// label of the configuration variant its Override sets. Experiment drivers
// enumerate their full job list up front and hand it to a Runner, so the
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

	// Attempts is 1 for a job that ran and 0 for one the sweep never
	// started (canceled before dispatch).
	Attempts int
	// Replayed marks a result served from a resumed journal rather than a
	// fresh simulation.
	Replayed bool
}

// ProgressFunc observes job completions. done counts completed jobs
// (1..total); calls are serialized, but arrive in completion order, not
// submission order. Every job is reported exactly once — including jobs
// replayed from a journal, canceled mid-run, or skipped because the sweep
// was canceled before they started — so done always reaches total.
type ProgressFunc func(done, total int, res JobResult)

// Runner executes batches of simulation jobs on a bounded worker pool.
//
// Results are returned in submission order regardless of completion order,
// and a parallel run's outcomes are bit-identical to a serial run's: every
// simulation owns its state (RNG, caches, queues, backing store), and the
// only thing jobs share is their inputs, which each Run call builds once,
// on first use, and only reads (see inputStore). The determinism test in
// determinism_test.go pins this down.
//
// The Options carried into Run add the crash-safety layer: Cancel stops
// the sweep cooperatively, JobTimeout bounds each job's wall-clock time,
// and Journal makes finished work durable and resumable. None of them
// changes any result when unused. A job runs once: every simulation is
// deterministic, so a retry would fail the same way again.
type Runner struct {
	// Workers bounds the number of concurrently running simulations.
	// <= 0 means runtime.GOMAXPROCS(0); 1 reproduces fully serial
	// execution.
	Workers int
	// Progress, if non-nil, is invoked after each job completes.
	Progress ProgressFunc
	// Sweep labels this batch's records in the journal (e.g. "fig13") so
	// the same journal can serve several drivers without index collisions.
	Sweep string

	// run stubs out RunOne in unit tests.
	run func(Job, Options) (apps.Outcome, error)
}

// Run executes jobs and returns one JobResult per job, index-aligned with
// the input slice. It always returns every job: errors are captured per
// job, never short-circuited, and when the sweep is canceled the jobs that
// never started still come back, carrying a canceled error.
func (r Runner) Run(opt Options, jobs []Job) []JobResult {
	return r.runWith(opt, jobs, &inputStore{})
}

// runWith is Run with the sweep's input store. Every job that will run
// holds a reference to its input from the start of the sweep until it
// finishes, however it finishes, so the store is empty when runWith returns.
func (r Runner) runWith(opt Options, jobs []Job, inputs *inputStore) []JobResult {
	if len(jobs) == 0 {
		// Explicit empty-batch path: nothing to clamp workers against,
		// nothing to journal, no Progress calls.
		return []JobResult{}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]JobResult, len(jobs))
	var progressMu sync.Mutex
	done := 0
	finish := func(i int, res JobResult) {
		results[i] = res
		if !res.Replayed {
			opt.Journal.record(r.Sweep, i, res)
		}
		if r.Progress != nil {
			progressMu.Lock()
			done++
			r.Progress(done, len(jobs), results[i])
			progressMu.Unlock()
		}
	}

	// Replay pass: serve journaled results first (in submission order),
	// then run only the remainder.
	pending := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if res, ok := opt.Journal.replayResult(r.Sweep, i, j); ok {
			finish(i, res)
		} else {
			pending = append(pending, i)
		}
	}

	keys := make([]inputKey, len(jobs))
	for _, i := range pending {
		keys[i] = jobs[i].inputKey(opt)
		inputs.acquire(keys[i])
	}

	runJob := func(i int) {
		defer inputs.release(keys[i])
		if canceled(opt.Cancel) {
			// Stopped admitting work: the job is reported (and journaled)
			// as canceled-before-start so a resume reschedules it.
			finish(i, JobResult{Job: jobs[i], Err: fmt.Errorf(
				"bench: %s skipped: sweep canceled before it started: %w", jobs[i].Key(), core.ErrCanceled)})
			return
		}
		out, err := r.attempt(jobs[i], opt, inputs)
		finish(i, JobResult{Job: jobs[i], Outcome: out, Err: err, Attempts: 1})
	}

	if workers <= 1 {
		for _, i := range pending {
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
	for _, i := range pending {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// attempt runs the job once on the sweep's inputs, with the per-job
// wall-clock deadline merged into the cooperative cancellation channel.
func (r Runner) attempt(j Job, opt Options, inputs *inputStore) (apps.Outcome, error) {
	runOne := r.run
	if runOne == nil {
		runOne = func(j Job, opt Options) (apps.Outcome, error) { return j.run(opt, r.Sweep, inputs) }
	}
	// A panicking job must not take down (or reorder) the batch: recover it
	// into a per-job *PanicError and keep going.
	runOne = protect(runOne)

	if opt.JobTimeout <= 0 {
		return runOne(j, opt)
	}

	// Merge the sweep-wide Cancel and this job's deadline into one done
	// channel; timedOut disambiguates which of the two fired.
	jobDone := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(jobDone) }) }
	var timedOut atomic.Bool
	timer := time.AfterFunc(opt.JobTimeout, func() {
		timedOut.Store(true)
		stop()
	})
	defer timer.Stop()
	if opt.Cancel != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-opt.Cancel:
				stop()
			case <-finished:
			}
		}()
	}
	jobOpt := opt
	jobOpt.Cancel = jobDone
	out, err := runOne(j, jobOpt)
	if err != nil && timedOut.Load() && errors.Is(err, core.ErrCanceled) {
		err = fmt.Errorf("bench: %s: %w (%v): %w", j.Key(), ErrJobTimeout, opt.JobTimeout, err)
	}
	return out, err
}

// canceled reports whether the sweep's cancel channel is closed.
func canceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// runner builds the Runner the experiment drivers share, honoring
// opt.Jobs. Options defaults to serial (Jobs == 0 → 1 worker) so library
// callers keep today's behavior unless they opt in; cmd/fiferbench
// defaults -j to runtime.NumCPU(). sweep labels the driver's records in
// the journal.
func (opt Options) runner(sweep string) Runner {
	workers := opt.Jobs
	if workers <= 0 {
		workers = 1
	}
	return Runner{Workers: workers, Progress: opt.Progress, Sweep: sweep}
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
