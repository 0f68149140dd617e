package bench

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/apps/silo"
	"fifer/internal/apps/spmm"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// len returns the number of keys some job still holds.
func (s *inputStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// fingerprint hashes every array of an app input (FNV-1a).
func fingerprint(t *testing.T, in any) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	words := func(xs []uint64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	floats := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	switch v := in.(type) {
	case *graph.Graph:
		words(v.Offsets)
		words(v.Neighbors)
	case spmm.Operands:
		words(v.A.RowOffsets)
		words(v.A.ColIdx)
		floats(v.A.Values)
		words(v.B.ColOffsets)
		words(v.B.RowIdx)
		floats(v.B.Values)
	case silo.Dataset:
		words(v.Keys)
		words(v.Values)
		words(v.Lookups)
	default:
		t.Fatalf("no fingerprint for input type %T", in)
	}
	return h.Sum64()
}

// derivedValues returns the values derived so far from k's input, by name,
// and the cells that hold them.
func (s *inputStore) derivedValues(k inputKey) (map[string]any, map[string]*lazy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals, cells := map[string]any{}, map[string]*lazy{}
	for name, l := range s.entries[k].values {
		if name != "" {
			vals[name], cells[name] = l.val, l
		}
	}
	return vals, cells
}

// fingerprintValue hashes a derived value's printed form (FNV-1a). %v
// prints every element of a slice, nested slices and unexported struct
// fields, and a float64 in the shortest form that reads back to its bits.
func fingerprintValue(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T %v", v, v)
	return h.Sum64()
}

// TestSharedInputsUnchanged runs each app on all four systems, two at a
// time, through one store and requires the shared input, and every value
// derived from it (the app's reference output, Silo's sorted records), to
// be bit-for-bit what it was before: a job that wrote to either would
// change every later job's result. Each derived value must also be the one
// the first job built, not a rebuild.
func TestSharedInputsUnchanged(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	derivedNames := map[string][]string{
		"BFS": {"bfs reference"}, "CC": {"cc reference"}, "PRD": {"prd reference"},
		"Radii": {"radii reference"}, "SpMM": {"spmm reference"},
		"Silo": {"silo records", "silo reference"},
	}
	for _, a := range appTable {
		t.Run(a.name, func(t *testing.T) {
			input := a.inputs[0]
			store := &inputStore{}
			k := Job{App: a.name, Input: input}.inputKey(opt)
			store.acquire(k) // the test's own reference keeps the input alive
			in := store.get(k, "", func() any { return a.build(input, opt.Scale, opt.Seed) })
			before := fingerprint(t, in)

			var jobs []Job
			for _, kind := range apps.Kinds {
				jobs = append(jobs, Job{App: a.name, Input: input, Kind: kind})
			}
			run := func(jobs []Job) {
				t.Helper()
				for _, res := range runOnStore(opt, jobs, store) {
					if res.Err != nil || !res.Outcome.Verified {
						t.Fatalf("%s: err %v, verified %v", res.Job.Key(), res.Err, res.Outcome.Verified)
					}
				}
			}
			// The first job derives the input's values; the four-system run
			// must read them as they are.
			run(jobs[:1])
			vals, cells := store.derivedValues(k)
			if len(vals) != len(derivedNames[a.name]) {
				t.Fatalf("derived %d value(s), want %v", len(vals), derivedNames[a.name])
			}
			derivedBefore := map[string]uint64{}
			for _, name := range derivedNames[a.name] {
				v, ok := vals[name]
				if !ok {
					t.Fatalf("no derived value %q", name)
				}
				derivedBefore[name] = fingerprintValue(v)
			}
			run(jobs)

			again := store.get(k, "", func() any {
				t.Fatal("the store rebuilt an input a job still holds")
				return nil
			})
			if got := fingerprint(t, again); got != before {
				t.Fatalf("input fingerprint %#x after the runs, %#x before", got, before)
			}
			valsAfter, cellsAfter := store.derivedValues(k)
			if len(valsAfter) != len(vals) {
				t.Fatalf("%d derived value(s) after the runs, %d before", len(valsAfter), len(vals))
			}
			for name, fp := range derivedBefore {
				if cellsAfter[name] != cells[name] {
					t.Fatalf("%q was derived again", name)
				}
				if got := fingerprintValue(valsAfter[name]); got != fp {
					t.Fatalf("%q fingerprint %#x after the runs, %#x before", name, got, fp)
				}
			}
			store.release(k)
			if n := store.len(); n != 0 {
				t.Fatalf("store holds %d input(s) after the last release", n)
			}
		})
	}
}

// TestSweepChecksSharedReference seeds the store with a wrong BFS
// reference before a two-worker sweep of BFS on all four systems: every
// job must fail its check against the shared value, and the graph's other
// apps, whose references are their own, must still pass.
func TestSweepChecksSharedReference(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	var jobs []Job
	for _, kind := range apps.Kinds {
		jobs = append(jobs, Job{App: "BFS", Input: "Hu", Kind: kind}, Job{App: "CC", Input: "Hu", Kind: kind})
	}
	store := &inputStore{}
	k := jobs[0].inputKey(opt)
	store.acquire(k)
	g := store.get(k, "", func() any { return graphs.build("Hu", opt.Scale, opt.Seed) }).(*graph.Graph)
	store.get(k, "bfs reference", func() any {
		want := graph.BFS(g, graphpipe.DefaultSource(g))
		want[len(want)-1]++
		return want
	})
	for _, res := range runOnStore(opt, jobs, store) {
		switch res.Job.App {
		case "BFS":
			if res.Err == nil || res.Outcome.Verified || !strings.Contains(res.Err.Error(), "distance") {
				t.Errorf("%s: err %v, verified %v; want a distance mismatch", res.Job.Key(), res.Err, res.Outcome.Verified)
			}
		default:
			if res.Err != nil || !res.Outcome.Verified {
				t.Errorf("%s: err %v, verified %v", res.Job.Key(), res.Err, res.Outcome.Verified)
			}
		}
	}
	store.release(k)
	if n := store.len(); n != 0 {
		t.Fatalf("store holds %d input(s) after the sweep", n)
	}
}

// TestInputStoreBuildsOnce reads one key, and two values derived from it,
// from several goroutines: the input and each derived value are built
// once, every reader gets them, and a panicking build, of an input or of a
// derived value, reaches every reader with the same value.
func TestInputStoreBuildsOnce(t *testing.T) {
	const readers = 8
	store := &inputStore{}
	k := inputKey{family: "graph", input: "Hu"}
	boom := inputKey{family: "graph", input: "bogus"}
	for i := 0; i < readers; i++ {
		store.acquire(k)
		store.acquire(boom)
	}
	names := []string{"input", "a reference", "records"}
	var builds [3]sync.Map
	counted := func(i int) func() any {
		return func() any {
			v := new(int)
			builds[i].Store(v, true)
			return v
		}
	}
	var wg sync.WaitGroup
	got := make([][3]any, readers)
	panics := make([][2]any, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer store.release(k)
			defer store.release(boom)
			got[i][0] = store.get(k, "", counted(0))
			got[i][1] = store.get(k, names[1], counted(1))
			got[i][2] = store.get(k, names[2], counted(2))
			func() {
				defer func() { panics[i][0] = recover() }()
				store.get(k, "bad", func() any { panic(errors.New("bad derived value")) })
			}()
			defer func() { panics[i][1] = recover() }()
			store.get(boom, "", func() any { panic(errors.New("unknown input")) })
		}(i)
	}
	wg.Wait()
	for j, name := range names {
		n := 0
		builds[j].Range(func(any, any) bool { n++; return true })
		if n != 1 {
			t.Fatalf("%d builds of %s, want 1", n, name)
		}
	}
	for i := range got {
		for j, name := range names {
			if got[i][j] != got[0][j] {
				t.Fatalf("reader %d got a different %s", i, name)
			}
		}
		for j, want := range []string{"bad derived value", "unknown input"} {
			if err, ok := panics[i][j].(error); !ok || err.Error() != want {
				t.Fatalf("reader %d: panic %v, want the build's panic %q", i, panics[i][j], want)
			}
		}
	}
	if n := store.len(); n != 0 {
		t.Fatalf("store holds %d input(s) after every reader released", n)
	}
	// A key no job holds is built privately and not kept, and so is what
	// is derived from it.
	store.get(k, "", func() any { return 1 })
	store.get(k, names[1], func() any { return 2 })
	if n := store.len(); n != 0 {
		t.Fatalf("a private build left %d input(s) in the store", n)
	}
	var nilStore *inputStore
	if v := nilStore.get(k, names[1], func() any { return 3 }); v != 3 {
		t.Fatalf("a nil store derived %v, want a private build", v)
	}
}

// runOnStore runs jobs on two workers, as a sweep does, reading their
// inputs from store.
func runOnStore(opt Options, jobs []Job, store *inputStore) []JobResult {
	opt.Jobs = 2
	return runWith(opt, jobs, store, func(j Job, o Options) (apps.Outcome, error) {
		return j.run(o, "", store)
	})
}

// TestInputStoreEmptiedBySweep checks that every way a job can finish
// releases its input: when runWith returns, the store is empty.
func TestInputStoreEmptiedBySweep(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	sweep := func(t *testing.T, opt Options, jobs []Job) []JobResult {
		t.Helper()
		store := &inputStore{}
		results := runOnStore(opt, jobs, store)
		if n := store.len(); n != 0 {
			t.Fatalf("store holds %d input(s) after the sweep", n)
		}
		return results
	}

	t.Run("normal", func(t *testing.T) {
		var jobs []Job
		for _, kind := range apps.Kinds {
			jobs = append(jobs, Job{App: "BFS", Input: "Hu", Kind: kind}, Job{App: "CC", Input: "Hu", Kind: kind})
		}
		jobs = append(jobs, Job{App: "SpMM", Input: InputsOf("SpMM")[0], Kind: apps.FiferPipe},
			Job{App: "Silo", Input: "YCSB-C", Kind: apps.SerialOOO})
		for _, res := range sweep(t, opt, jobs) {
			if res.Err != nil || !res.Outcome.Verified {
				t.Fatalf("%s: err %v, verified %v", res.Job.Key(), res.Err, res.Outcome.Verified)
			}
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := opt
		o.Jobs = 1
		o.Context = ctx
		o.Progress = func(done, _ int, _ JobResult) {
			if done == 1 {
				cancel()
			}
		}
		var jobs []Job
		for _, in := range InputsOf("BFS") {
			jobs = append(jobs, Job{App: "BFS", Input: in, Kind: apps.FiferPipe})
		}
		results := sweep(t, o, jobs)
		if last := results[len(results)-1]; !errors.Is(last.Err, core.ErrCanceled) {
			t.Fatalf("last job: err %v, want a canceled skip", last.Err)
		}
	})

	t.Run("panicking", func(t *testing.T) {
		store := &inputStore{}
		o := opt
		o.Jobs = 2
		for _, res := range runWith(o, stubJobs(6), store, func(j Job, o Options) (apps.Outcome, error) {
			store.get(j.inputKey(o), "", func() any { return j.Input })
			panic("boom")
		}) {
			var pe *PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("%s: err %v, want a recovered panic", res.Job.Key(), res.Err)
			}
		}
		if n := store.len(); n != 0 {
			t.Fatalf("store holds %d input(s) after the sweep", n)
		}
	})
}
