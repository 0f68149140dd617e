package bench

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fifer/internal/apps"
)

// This file is the harness-level half of the fast-forward equivalence
// contract (DESIGN.md §10): every simulation surface the harness exports —
// outcomes, trace events, metrics rows, goldens, journals — must be
// byte-identical whether the core runs the naive per-cycle loop
// (Options.NoFastForward, the oracle) or the event-horizon fast-forward
// that is on by default. The core-level differential suite lives in
// internal/core/horizon_test.go; these tests pin the same equivalence
// through the full application stack.

// ffJobs is the standard differential job list: every app's first input on
// both pipelined CGRA systems.
func ffJobs() []Job {
	var jobs []Job
	for _, app := range AppNames {
		input := InputsOf(app)[0]
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe})
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.StaticPipe})
	}
	return jobs
}

// TestFastForwardMatchesOracleApps runs every app against the oracle:
// fast-forward and naive-loop sweeps must produce DeepEqual outcomes, with
// tracing off and on and at -j 1 and -j NumCPU. With tracing on, the two
// modes must also capture identical event streams and metrics rows — the
// strongest harness-level statement that fast-forward skips only cycles in
// which nothing observable happens.
func TestFastForwardMatchesOracleApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep")
	}
	jobs := ffJobs()
	base := Options{Scale: 0, Seed: 1}

	run := func(oracle, traced bool, workers int) ([]JobResult, *TraceSink) {
		opt := base
		opt.NoFastForward = oracle
		if traced {
			opt.Trace = &TraceSink{SampleCycles: 512, BufEvents: 1 << 14}
		}
		return Runner{Workers: workers}.Run(opt, jobs), opt.Trace
	}

	for _, tc := range []struct {
		name    string
		traced  bool
		workers int
	}{
		{"untraced-j1", false, 1},
		{"untraced-jN", false, runtime.NumCPU()},
		{"traced-j1", true, 1},
		{"traced-jN", true, runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, fastSink := run(false, tc.traced, tc.workers)
			oracle, oracleSink := run(true, tc.traced, tc.workers)
			for i, j := range jobs {
				if fast[i].Err != nil {
					t.Fatalf("%s fast-forward: %v", j.key(), fast[i].Err)
				}
				if oracle[i].Err != nil {
					t.Fatalf("%s oracle: %v", j.key(), oracle[i].Err)
				}
				if !reflect.DeepEqual(fast[i].Outcome, oracle[i].Outcome) {
					t.Errorf("%s: fast-forward outcome differs from naive loop\nfast:   %+v\noracle: %+v",
						j.key(), fast[i].Outcome, oracle[i].Outcome)
				}
			}
			if !tc.traced {
				return
			}
			fj, oj := fastSink.Jobs(), oracleSink.Jobs()
			if len(fj) == 0 || len(fj) != len(oj) {
				t.Fatalf("traced job counts: fast=%d oracle=%d", len(fj), len(oj))
			}
			for i := range fj {
				if fj[i].Key != oj[i].Key {
					t.Fatalf("traced job keys diverge: %q vs %q", fj[i].Key, oj[i].Key)
				}
				if fj[i].Collector.Len() == 0 {
					t.Errorf("%s: traced run captured no events", fj[i].Key)
				}
				if !reflect.DeepEqual(fj[i].Collector.Events(), oj[i].Collector.Events()) {
					t.Errorf("%s: fast-forward event stream differs from naive loop", fj[i].Key)
				}
				if !reflect.DeepEqual(fj[i].Collector.Rows(), oj[i].Collector.Rows()) {
					t.Errorf("%s: fast-forward metrics rows differ from naive loop", fj[i].Key)
				}
			}
		})
	}
}

// TestGoldenFig13WithOracle re-renders the Fig. 13 golden with the naive
// per-cycle loop: the committed golden was produced under fast-forward, so a
// byte-for-byte match proves the two execution modes agree on every number
// the paper reports.
func TestGoldenFig13WithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.NoFastForward = true
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
}

// TestFastForwardJournalBytesIdentical journals the same sweep once under
// fast-forward and once under the oracle: the two journals must hold the
// same header and records byte for byte, CRCs included, in whatever order
// the jobs completed. Journal records carry no wall-clock fields, so any
// divergence means fast-forward changed a simulated result.
func TestFastForwardJournalBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := goldenOpt("BFS", "SpMM")
	fast := journalFig13(t, filepath.Join(dir, "fast.jsonl"), opt)
	opt.NoFastForward = true
	oracle := journalFig13(t, filepath.Join(dir, "oracle.jsonl"), opt)
	checkSameJournal(t, "fast-forward", fast, "oracle", oracle)
}
