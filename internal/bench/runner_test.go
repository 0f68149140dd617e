package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fifer/internal/apps"
)

// stubJobs builds n distinguishable jobs for stubbed-runner tests.
func stubJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{App: "BFS", Input: fmt.Sprintf("in%d", i), Kind: apps.FiferPipe}
	}
	return jobs
}

// runStub runs jobs as a sweep does, with run standing in for the
// simulation.
func runStub(opt Options, jobs []Job, run jobFunc) []JobResult {
	return runWith(opt, jobs, &inputStore{}, run)
}

// TestRunnerSubmissionOrder makes later-submitted jobs finish first and
// checks results still come back index-aligned with the job slice.
func TestRunnerSubmissionOrder(t *testing.T) {
	const n = 16
	results := runStub(Options{Jobs: 4}, stubJobs(n), func(j Job, _ Options) (apps.Outcome, error) {
		var i int
		fmt.Sscanf(j.Input, "in%d", &i)
		time.Sleep(time.Duration(n-i) * time.Millisecond) // invert completion order
		return apps.Outcome{Cycles: uint64(i) + 1}, nil
	})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Job.Input != fmt.Sprintf("in%d", i) {
			t.Fatalf("result %d holds job %q: results reordered", i, res.Job.Input)
		}
		if res.Outcome.Cycles != uint64(i)+1 {
			t.Fatalf("result %d has Cycles=%d, want %d", i, res.Outcome.Cycles, i+1)
		}
	}
}

// TestRunnerWorkerBound checks concurrency never exceeds Options.Jobs.
func TestRunnerWorkerBound(t *testing.T) {
	const workers = 3
	if got := peakConcurrency(Options{Jobs: workers}, 24); got > workers {
		t.Fatalf("peak concurrency %d exceeds Jobs=%d", got, workers)
	}
}

// peakConcurrency runs n stub jobs that each take 2ms and returns how many
// ran at once at the peak.
func peakConcurrency(opt Options, n int) int64 {
	var inFlight, peak atomic.Int64
	runStub(opt, stubJobs(n), func(Job, Options) (apps.Outcome, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return apps.Outcome{}, nil
	})
	return peak.Load()
}

// TestRunnerErrorIsolation checks one failing job neither aborts nor
// reorders the rest of the batch.
func TestRunnerErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	results := runStub(Options{Jobs: 4}, stubJobs(10), func(j Job, _ Options) (apps.Outcome, error) {
		if j.Input == "in5" {
			return apps.Outcome{}, boom
		}
		return apps.Outcome{Cycles: 7}, nil
	})
	for i, res := range results {
		if i == 5 {
			if !errors.Is(res.Err, boom) {
				t.Fatalf("job 5: err = %v, want boom", res.Err)
			}
			continue
		}
		if res.Err != nil || res.Outcome.Cycles != 7 {
			t.Fatalf("job %d: err=%v cycles=%d; failure leaked into healthy jobs", i, res.Err, res.Outcome.Cycles)
		}
	}
	if bad := firstError(results); bad == nil || bad.Job.Input != "in5" {
		t.Fatalf("firstError = %+v, want job in5", bad)
	}
}

// TestRunnerProgress checks the callback is serialized and counts every
// completion exactly once.
func TestRunnerProgress(t *testing.T) {
	const n = 12
	var calls int
	seen := map[string]bool{}
	// Progress runs under the sweep's mutex, so plain ints/maps are safe
	// here; the race detector verifies that claim.
	opt := Options{Jobs: 4, Progress: func(done, total int, res JobResult) {
		calls++
		if done != calls {
			t.Errorf("done=%d on call %d: progress not monotone", done, calls)
		}
		if total != n {
			t.Errorf("total=%d, want %d", total, n)
		}
		if seen[res.Job.Input] {
			t.Errorf("job %s reported twice", res.Job.Input)
		}
		seen[res.Job.Input] = true
	}}
	runStub(opt, stubJobs(n), func(Job, Options) (apps.Outcome, error) {
		return apps.Outcome{}, nil
	})
	if calls != n {
		t.Fatalf("progress called %d times, want %d", calls, n)
	}
}

// TestRunnerDefaultWorkers checks Jobs<=0 still runs everything.
func TestRunnerDefaultWorkers(t *testing.T) {
	for _, jobs := range []int{0, -1} {
		results := runStub(Options{Jobs: jobs}, stubJobs(5), func(Job, Options) (apps.Outcome, error) {
			return apps.Outcome{Cycles: 1}, nil
		})
		for i, res := range results {
			if res.Outcome.Cycles != 1 {
				t.Fatalf("Jobs=%d: job %d did not run", jobs, i)
			}
		}
	}
}

// TestOptionsRunnerSerialDefault checks Options defaults to one worker so
// library callers keep serial behavior unless they opt in, and that Jobs=6
// runs six jobs at once: each of the six waits until all six have started.
func TestOptionsRunnerSerialDefault(t *testing.T) {
	if got := peakConcurrency(Options{}, 6); got != 1 {
		t.Fatalf("default peak concurrency = %d, want 1", got)
	}
	const n = 6
	var started sync.WaitGroup
	started.Add(n)
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	results := runStub(Options{Jobs: n}, stubJobs(n), func(Job, Options) (apps.Outcome, error) {
		started.Done()
		select {
		case <-allStarted:
			return apps.Outcome{Cycles: 1}, nil
		case <-time.After(10 * time.Second):
			return apps.Outcome{}, errors.New("the other jobs never started")
		}
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("Jobs=%d: job %d: %v", n, i, res.Err)
		}
	}
}
