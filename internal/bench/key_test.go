package bench

import (
	"context"
	"testing"

	"fifer/internal/apps"
)

// sweepJobs returns the jobs sweep enumerates at scale 0, without running
// any: under an already-canceled context runWith reports every job as
// canceled before it started.
func sweepJobs(t *testing.T, sweep func(Options) error) []Job {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []Job
	opt := Options{Scale: 0, Seed: 1, Context: ctx,
		Progress: func(_, _ int, res JobResult) { jobs = append(jobs, res.Job) }}
	if err := sweep(opt); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestJobKeysRoundTrip checks that every job of every sweep is named by its
// key: ParseKey(j.Key()) is j, and no two jobs of one sweep share a key.
func TestJobKeysRoundTrip(t *testing.T) {
	inputs := 0
	for _, app := range AppNames {
		inputs += len(InputsOf(app))
	}
	for _, tc := range []struct {
		name     string
		sweep    func(Options) error
		perInput int
	}{
		{"fig13", func(o Options) error { _, err := Fig13(o); return err }, len(apps.Kinds)},
		{"fig16", func(o Options) error { _, err := Fig16(o); return err }, 2 * len(Fig16Factors)},
		{"fig17", func(o Options) error { _, err := Fig17(o); return err }, 3},
		{"zerocost", func(o Options) error { _, err := ZeroCost(o); return err }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := sweepJobs(t, tc.sweep)
			if want := inputs * tc.perInput; len(jobs) != want {
				t.Fatalf("%d jobs, want %d", len(jobs), want)
			}
			seen := map[string]bool{}
			for _, j := range jobs {
				key := j.Key()
				if seen[key] {
					t.Errorf("two jobs share the key %q", key)
				}
				seen[key] = true
				got, err := ParseKey(key)
				if err != nil {
					t.Errorf("ParseKey(%q): %v", key, err)
				} else if got != j {
					t.Errorf("ParseKey(%q) = %+v, want %+v", key, got, j)
				}
			}
		})
	}
}

// TestParseKey pins the grammar: each optional token in Key's order, and
// the rejections, which name what is wrong.
func TestParseKey(t *testing.T) {
	for key, want := range map[string]Job{
		"BFS/Hu fifer-16pe":                          {App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
		"SpMM/St static-16pe merged":                 {App: "SpMM", Input: "St", Kind: apps.StaticPipe, Merged: true},
		"Silo/YCSB-C serial-ooo":                     {App: "Silo", Input: "YCSB-C", Kind: apps.SerialOOO},
		"BFS/Hu fifer-16pe qmem=0.25x no-dbuf":       {App: "BFS", Input: "Hu", Kind: apps.FiferPipe, QueueScale: 0.25, NoDoubleBuffer: true},
		"CC/Rd fifer-16pe no-dbuf":                   {App: "CC", Input: "Rd", Kind: apps.FiferPipe, NoDoubleBuffer: true},
		"PRD/Hu 4-core-ooo merged qmem=4x zero-cost": {App: "PRD", Input: "Hu", Kind: apps.MulticoreOOO, Merged: true, QueueScale: 4, ZeroCostReconfig: true},
	} {
		got, err := ParseKey(key)
		if err != nil || got != want {
			t.Errorf("ParseKey(%q) = %+v, %v; want %+v", key, got, err, want)
		}
	}
	for _, key := range []string{
		"",
		"BFS/Hu",
		"BFS fifer-16pe",
		"XYZ/Hu fifer-16pe",
		"BFS/St fifer-16pe",
		"BFS/Hu fifer",
		"BFS/Hu  fifer-16pe",
		"BFS/Hu fifer-16pe ",
		"BFS/Hu fifer-16pe turbo",
		"BFS/Hu fifer-16pe merged merged",
		"BFS/Hu fifer-16pe no-dbuf merged",
		"BFS/Hu fifer-16pe no-dbuf qmem=2x",
		"BFS/Hu fifer-16pe zero-cost no-dbuf",
		"BFS/Hu fifer-16pe qmem=1x",
		"BFS/Hu fifer-16pe qmem=0x",
		"BFS/Hu fifer-16pe qmem=-2x",
		"BFS/Hu fifer-16pe qmem=2",
		"BFS/Hu fifer-16pe qmem=2.0x",
		"BFS/Hu fifer-16pe qmem=+Infx",
		"BFS/Hu fifer-16pe qmem=NaNx",
		"BFS/Hu fifer-16pe qmem=2x qmem=4x",
	} {
		if j, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) = %+v, want an error", key, j)
		}
	}
}

// FuzzParseKey checks that ParseKey accepts only canonical keys: whenever
// it succeeds, the job's Key is the input.
func FuzzParseKey(f *testing.F) {
	for _, s := range []string{
		"BFS/Hu fifer-16pe",
		"SpMM/St static-16pe merged",
		"BFS/Hu fifer-16pe qmem=0.25x no-dbuf",
		"Radii/Dy fifer-16pe zero-cost",
		"BFS/Hu fifer-16pe qmem=1e+06x",
		"BFS/Hu fifer-16pe qmem=1x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		j, err := ParseKey(s)
		if err != nil {
			return
		}
		if got := j.Key(); got != s {
			t.Fatalf("ParseKey(%q) = %+v, whose Key is %q", s, j, got)
		}
	})
}
