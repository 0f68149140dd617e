package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfEachPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"fifer/internal/core.(*PE).Tick":              "core.self_s",
		"fifer/internal/core.(*System).runSeq":        "core.self_s",
		"fifer/internal/mem.(*Cache).Access":          "mem.self_s",
		"fifer/internal/queue.(*Queue).Enq":           "queue.self_s",
		"fifer/internal/stage.(*Stage).Fire":          "stage.self_s",
		"fifer/internal/apps/bfs.build.func2":         "apps.self_s",
		"fifer/internal/apps.CollectPipeCounts":       "apps.self_s",
		"fifer/internal/apps/graphpipe.Build.func1":   "apps.self_s",
		"fifer/internal/cgra.Place":                   "cgra.self_s",
		"fifer/internal/graph.RMAT":                   "graph.self_s",
		"fifer/internal/sparse.Transpose":             "sparse.self_s",
		"fifer/internal/btree.Build":                  "btree.self_s",
		"fifer/internal/ycsb.(*Zipfian).Next":         "ycsb.self_s",
		"fifer/internal/ooo.(*Machine).Exec":          "ooo.self_s",
		"fifer/internal/bench.RunOne":                 "bench.self_s",
		"fifer/internal/sim.(*Rand).Uint64":           "other.self_s",
		"fifer/perfbench.generate":                    "other.self_s",
		"runtime.mallocgc":                            "other.self_s",
		"sort.insertionSort":                          "other.self_s",
		"slices.pdqsortCmpFunc[go.shape.struct {}]":   "other.self_s",
		"fifer/internal/corex.F":                      "other.self_s",
		"fifer/internal/core.(*Q[go.shape.int]).Push": "core.self_s",
	} {
		if got := Layer([]string{fn, "main.main"}); got != want {
			t.Errorf("Layer(%s) = %s, want %s", fn, got, want)
		}
	}
}

func TestLayerChargesCollectorByStack(t *testing.T) {
	for _, stack := range [][]string{
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc1", "runtime.mallocgc", "fifer/internal/core.NewSystem"},
		{"runtime.sweepone", "runtime.bgsweep"},
		{"fifer/internal/core.(*PE).Tick", "runtime.GC"},
	} {
		if got := Layer(stack); got != "runtime.gc_s" {
			t.Errorf("Layer(%v) = %s, want runtime.gc_s", stack, got)
		}
	}
	if got := Layer(nil); got != "other.self_s" {
		t.Errorf("Layer(nil) = %s, want other.self_s", got)
	}
}

// A synthetic profile touching every layer: each sample lands in exactly
// one bucket, so the buckets add up to the profile's total.
func TestBucketsSumToTotal(t *testing.T) {
	leaves := []string{
		"fifer/internal/core.(*PE).Tick", "fifer/internal/mem.(*Cache).Access",
		"fifer/internal/queue.(*Queue).Deq", "fifer/internal/stage.(*Stage).Fire",
		"fifer/internal/apps/spmm.build.func1", "fifer/internal/cgra.Place",
		"fifer/internal/graph.RMAT", "fifer/internal/sparse.Generate",
		"fifer/internal/btree.Build", "fifer/internal/ycsb.GenerateC",
		"fifer/internal/ooo.(*Core).Step", "fifer/internal/bench.Runner.Run.func3",
		"runtime.scanobject", "runtime.memmove", "",
	}
	var samples []Sample
	var want int64
	for i, leaf := range leaves {
		for k := 0; k <= i; k++ {
			ns := int64(10_000_000 + 1_000*i + k)
			samples = append(samples, Sample{Stack: []string{leaf, "main.main"}, Nanos: ns})
			want += ns
		}
	}
	buckets, total := Bucket(samples)
	if total != float64(want)/1e9 {
		t.Fatalf("total = %v, want %v", total, float64(want)/1e9)
	}
	if len(buckets) != len(Layers) {
		t.Fatalf("%d buckets, want %d", len(buckets), len(Layers))
	}
	sum := 0.0
	for _, l := range Layers {
		if buckets[l] == 0 {
			t.Errorf("bucket %s is empty", l)
		}
		sum += buckets[l]
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("buckets sum to %v, total %v", sum, total)
	}
}

// burn keeps the CPU busy in a function of this package long enough for
// the profiler to sample it.
//
//go:noinline
func burn(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := ParseCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	var burnNs, total int64
	for _, s := range samples {
		total += s.Nanos
		if len(s.Stack) > 0 && s.Stack[0] == "fifer/perfbench.burn" {
			burnNs += s.Nanos
		}
	}
	if burnNs < int64(100*time.Millisecond) {
		t.Fatalf("burn's self time %v of %v total, want most of 300ms", time.Duration(burnNs), time.Duration(total))
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseCPUProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
