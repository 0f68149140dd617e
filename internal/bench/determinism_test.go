package bench

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/trace"
)

// TestParallelMatchesSerial is the determinism guarantee's pin: for every
// app at scale 0, the same (input, system, seed) run serially and through
// a parallel sweep must produce bit-identical apps.Outcome structs.
// Any hidden shared state (a package-level RNG, a memoized generated
// input) the concurrency audit missed shows up here — either as a
// DeepEqual mismatch or as a report under `go test -race`.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism sweep")
	}
	opt := Options{Scale: 0, Seed: 1}
	var jobs []Job
	for _, app := range AppNames {
		input := InputsOf(app)[0]
		for _, kind := range apps.Kinds {
			jobs = append(jobs, Job{App: app, Input: input, Kind: kind})
		}
	}
	serial := runJobs(opt, "", jobs)
	opt.Jobs = 8
	parallel := runJobs(opt, "", jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result counts: serial=%d parallel=%d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i, j := range jobs {
		if serial[i].Err != nil {
			t.Fatalf("serial %s/%s %v: %v", j.App, j.Input, j.Kind, serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("parallel %s/%s %v: %v", j.App, j.Input, j.Kind, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Outcome, parallel[i].Outcome) {
			t.Errorf("%s/%s %v: parallel outcome differs from serial\nserial:   %+v\nparallel: %+v",
				j.App, j.Input, j.Kind, serial[i].Outcome, parallel[i].Outcome)
		}
	}
}

// TestTracingDoesNotPerturb is the differential half of the observability
// contract (DESIGN.md §9): attaching a TraceSink must not change a single
// bit of any outcome, at any worker count. Every app at scale 0 is run
// untraced, traced at -j 1, and traced at -j NumCPU; all three result sets
// must DeepEqual, and both traced sweeps must actually have captured events
// (so the test cannot pass vacuously with tracing silently off).
func TestTracingDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep")
	}
	var jobs []Job
	for _, app := range AppNames {
		input := InputsOf(app)[0]
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.FiferPipe})
		jobs = append(jobs, Job{App: app, Input: input, Kind: apps.StaticPipe})
	}
	base := Options{Scale: 0, Seed: 1}
	plain := runJobs(base, "", jobs)

	run := func(workers int) ([]JobResult, *TraceSink) {
		opt := base
		// Small rings on purpose: overflow (drop-oldest) must be just as
		// invisible to the simulation as comfortable headroom.
		opt.Trace = &TraceSink{SampleCycles: 512, BufEvents: 1 << 12}
		opt.Jobs = workers
		return runJobs(opt, "", jobs), opt.Trace
	}
	serialTraced, sinkSerial := run(1)
	parallelTraced, sinkParallel := run(runtime.NumCPU())

	for i, j := range jobs {
		for _, r := range []JobResult{plain[i], serialTraced[i], parallelTraced[i]} {
			if r.Err != nil {
				t.Fatalf("%s: %v", j.Key(), r.Err)
			}
		}
		if !reflect.DeepEqual(plain[i].Outcome, serialTraced[i].Outcome) {
			t.Errorf("%s: traced serial outcome differs from untraced", j.Key())
		}
		if !reflect.DeepEqual(plain[i].Outcome, parallelTraced[i].Outcome) {
			t.Errorf("%s: traced parallel outcome differs from untraced", j.Key())
		}
	}
	for _, sink := range []*TraceSink{sinkSerial, sinkParallel} {
		traced := sink.Jobs()
		if len(traced) != len(jobs) {
			t.Fatalf("sink captured %d job(s), want %d", len(traced), len(jobs))
		}
		for _, tj := range traced {
			if tj.Collector.Len() == 0 {
				t.Errorf("%s: traced run captured no events", tj.Key)
			}
		}
	}
}

// TestTracingKeepsEveryJob covers the sweeps whose jobs differ only in
// their override: Fig. 16's queue sizes and double buffering, and
// zero-cost reconfiguration. Traced into one sink, they must leave one
// traced job per CGRA job, and the trace and metrics exports must be
// byte-identical at -j 1 and -j 2.
func TestTracingKeepsEveryJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two Fig. 16 sweeps")
	}
	export := func(workers int) (traceJSON, metrics string, jobs int) {
		opt := Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}, Jobs: workers,
			Trace: &TraceSink{SampleCycles: 1024, BufEvents: 1 << 10}}
		if _, err := Fig16(opt); err != nil {
			t.Fatal(err)
		}
		if _, err := ZeroCost(opt); err != nil {
			t.Fatal(err)
		}
		var tb, mb strings.Builder
		if err := opt.Trace.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := opt.Trace.WriteMetricsJSONL(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), mb.String(), len(opt.Trace.Jobs())
	}
	inputs := len(InputsOf("BFS"))
	// Every job is a CGRA job. Fig. 16 runs each input at every (factor,
	// double-buffering) point, its baseline serving as the 1x
	// double-buffered one; zero-cost runs each input twice.
	want := inputs*2*len(Fig16Factors) + inputs*2
	serialTrace, serialMetrics, serialJobs := export(1)
	parallelTrace, parallelMetrics, parallelJobs := export(2)
	if serialJobs != want || parallelJobs != want {
		t.Fatalf("traced %d job(s) at -j 1 and %d at -j 2, want %d", serialJobs, parallelJobs, want)
	}
	if serialTrace != parallelTrace {
		t.Error("trace export differs between -j 1 and -j 2")
	}
	if serialMetrics != parallelMetrics {
		t.Error("metrics export differs between -j 1 and -j 2")
	}
}

// TestMetricsOnlySink pins the sink fiferbench attaches for -metrics
// without -trace: every CGRA job is kept although it holds no events, the
// OOO job is still dropped, and each job's metrics rows and kernel counters
// equal those of a fully traced run.
func TestMetricsOnlySink(t *testing.T) {
	jobs := []Job{
		{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
		{App: "BFS", Input: "Hu", Kind: apps.StaticPipe},
		{App: "BFS", Input: "Hu", Kind: apps.MulticoreOOO},
	}
	run := func(metricsOnly bool) []TracedJob {
		opt := Options{Scale: 0, Seed: 1,
			Trace: &TraceSink{SampleCycles: 1024, MetricsOnly: metricsOnly}}
		for _, r := range runJobs(opt, "", jobs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return opt.Trace.Jobs()
	}
	traced, metricsOnly := run(false), run(true)
	if len(metricsOnly) != 2 || len(traced) != 2 {
		t.Fatalf("kept %d metrics-only and %d traced job(s), want 2 each", len(metricsOnly), len(traced))
	}
	for i, m := range metricsOnly {
		tj := traced[i]
		switch {
		case m.Key != tj.Key:
			t.Fatalf("job %d: key %q, traced %q", i, m.Key, tj.Key)
		case m.Collector.Len() != 0:
			t.Errorf("%s: metrics-only job holds %d event(s)", m.Key, m.Collector.Len())
		case tj.Collector.Len() == 0:
			t.Errorf("%s: traced job holds no events", tj.Key)
		case len(m.Collector.Rows()) == 0:
			t.Errorf("%s: metrics-only job sampled no rows", m.Key)
		case !reflect.DeepEqual(m.Collector.Rows(), tj.Collector.Rows()):
			t.Errorf("%s: metrics rows differ from the traced run's", m.Key)
		case m.Collector.Kernel() != tj.Collector.Kernel():
			t.Errorf("%s: kernel counters %+v, traced %+v", m.Key, m.Collector.Kernel(), tj.Collector.Kernel())
		}
	}
}

// TestTraceSinkRejectsDuplicateKey pins that a second job under a key the
// sink already holds panics instead of replacing the first job's trace.
func TestTraceSinkRejectsDuplicateKey(t *testing.T) {
	sink := NewTraceSink(0)
	traced := func() *trace.Collector {
		col := trace.NewCollector(4)
		col.Emit(trace.Event{Name: "s"})
		return col
	}
	sink.add("fig16 BFS/Hu fifer-16pe", traced())
	sink.add("fig16 BFS/Hu fifer-16pe qmem=1x", traced())
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated trace key was accepted")
		}
		if n := len(sink.Jobs()); n != 2 {
			t.Fatalf("sink holds %d job(s) after the rejected add, want 2", n)
		}
	}()
	sink.add("fig16 BFS/Hu fifer-16pe", traced())
}

// TestGoldenFig13WithTracing re-renders the Fig. 13 golden with a TraceSink
// attached: the formatter output must match the committed golden byte for
// byte, proving tracing cannot leak into the paper's regenerated numbers.
func TestGoldenFig13WithTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.Trace = &TraceSink{SampleCycles: 1024, BufEvents: 1 << 14}
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
	if len(opt.Trace.Jobs()) == 0 {
		t.Fatal("sweep with TraceSink captured nothing")
	}
}

// TestRepeatedRunsIdentical re-runs one simulation twice back to back in
// the same process: a cheaper canary for state leaking between runs.
func TestRepeatedRunsIdentical(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	a, err := RunOne("CC", "Hu", apps.FiferPipe, false, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne("CC", "Hu", apps.FiferPipe, false, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same run twice differs:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
