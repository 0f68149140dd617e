package bench

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// This file is the harness-level half of the shard-invariance contract
// (DESIGN.md §11): every simulation surface the harness exports — outcomes,
// trace events, metrics rows, goldens, journals — must be byte-identical
// whether the core runs the sequential kernel (Shards ≤ 1) or the sharded
// kernel at any shard count. The core-level property tests live in
// internal/core/shard_test.go; these pin the same equivalence through the
// full application stack, composed with job-level parallelism (-j) and with
// the fast-forward differential suite in ffdiff_test.go.

// TestShardInvarianceApps runs every app at shard counts 2 and 4 against a
// sequential baseline, untraced and traced, serially and with parallel
// jobs: outcomes, event streams, and metrics rows must all be DeepEqual.
// Shard-count invariance composed over {traced} × {workers} is the
// strongest harness-level statement that the epoch-barrier protocol applies
// every cross-shard exchange in the sequential kernel's canonical order.
func TestShardInvarianceApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep")
	}
	jobs := ffJobs()
	base := Options{Scale: 0, Seed: 1}

	run := func(shards int, traced bool, workers int) ([]JobResult, *TraceSink) {
		opt := base
		opt.Shards = shards
		if traced {
			opt.Trace = &TraceSink{SampleCycles: 512, BufEvents: 1 << 14}
		}
		return Runner{Workers: workers}.Run(opt, jobs), opt.Trace
	}

	// One sequential baseline per tracing mode; the fast-forward suite
	// already pins that -j does not change sequential results.
	type baseline struct {
		results []JobResult
		sink    *TraceSink
	}
	seq := map[bool]baseline{}
	for _, traced := range []bool{false, true} {
		res, sink := run(1, traced, 1)
		seq[traced] = baseline{res, sink}
	}

	for _, tc := range []struct {
		name    string
		shards  int
		traced  bool
		workers int
	}{
		{"shards2-untraced-j1", 2, false, 1},
		{"shards2-untraced-jN", 2, false, runtime.NumCPU()},
		{"shards2-traced-j1", 2, true, 1},
		{"shards2-traced-jN", 2, true, runtime.NumCPU()},
		{"shards4-untraced-j1", 4, false, 1},
		{"shards4-untraced-jN", 4, false, runtime.NumCPU()},
		{"shards4-traced-j1", 4, true, 1},
		{"shards4-traced-jN", 4, true, runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sharded, shardedSink := run(tc.shards, tc.traced, tc.workers)
			want := seq[tc.traced]
			for i, j := range jobs {
				if sharded[i].Err != nil {
					t.Fatalf("%s sharded: %v", j.key(), sharded[i].Err)
				}
				if want.results[i].Err != nil {
					t.Fatalf("%s sequential: %v", j.key(), want.results[i].Err)
				}
				if !reflect.DeepEqual(sharded[i].Outcome, want.results[i].Outcome) {
					t.Errorf("%s: sharded outcome differs from sequential kernel\nsharded:    %+v\nsequential: %+v",
						j.key(), sharded[i].Outcome, want.results[i].Outcome)
				}
			}
			if !tc.traced {
				return
			}
			sj, wj := shardedSink.Jobs(), want.sink.Jobs()
			if len(sj) == 0 || len(sj) != len(wj) {
				t.Fatalf("traced job counts: sharded=%d sequential=%d", len(sj), len(wj))
			}
			for i := range sj {
				if sj[i].Key != wj[i].Key {
					t.Fatalf("traced job keys diverge: %q vs %q", sj[i].Key, wj[i].Key)
				}
				if sj[i].Collector.Len() == 0 {
					t.Errorf("%s: traced run captured no events", sj[i].Key)
				}
				if !reflect.DeepEqual(sj[i].Collector.Events(), wj[i].Collector.Events()) {
					t.Errorf("%s: sharded event stream differs from sequential kernel", sj[i].Key)
				}
				if !reflect.DeepEqual(sj[i].Collector.Rows(), wj[i].Collector.Rows()) {
					t.Errorf("%s: sharded metrics rows differ from sequential kernel", sj[i].Key)
				}
			}
		})
	}
}

// TestGoldenFig13Sharded re-renders the Fig. 13 golden on the sharded
// kernel: the committed golden was produced by the sequential kernel, so a
// byte-for-byte match proves the kernels agree on every number the paper
// reports.
func TestGoldenFig13Sharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.Shards = 4
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
}

// TestShardJournalBytesIdentical journals the same sweep on both kernels:
// the two journals must hold the same header and records byte for byte,
// CRCs included, in whatever order the jobs completed. Journal records
// carry no wall-clock fields, so any divergence means the sharded kernel
// changed a simulated result.
func TestShardJournalBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := goldenOpt("BFS", "SpMM")
	opt.Shards = 4
	sharded := journalFig13(t, filepath.Join(dir, "sharded.jsonl"), opt)
	opt.Shards = 1
	sequential := journalFig13(t, filepath.Join(dir, "sequential.jsonl"), opt)
	checkSameJournal(t, "sharded", sharded, "sequential", sequential)
}
