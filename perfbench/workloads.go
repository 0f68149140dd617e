package main

import (
	"fmt"
	"runtime"
	"time"

	"fifer/internal/apps"
	"fifer/internal/apps/silo"
	"fifer/internal/apps/spmm"
	"fifer/internal/bench"
	"fifer/internal/graph"
	"fifer/internal/sparse"
)

// job is one simulation of a workload, run through bench.RunOne.
type job struct {
	App, Input string
	Kind       apps.SystemKind
}

func (j job) key() string { return fmt.Sprintf("%s/%s/%v", j.App, j.Input, j.Kind) }

// workload is one named set of inputs the benchmark runs (README.md and
// BENCHMARK.json say why each was chosen). A pass runs the
// whole set once: serial workloads generate each job's inputs (timed as
// set-up) and then simulate it; the sweep workload generates every input of
// the sweep and then calls bench.Fig13.
type workload struct {
	Name  string
	Scale int
	Jobs  []job // serial workloads; nil for the sweep
	Sweep bool  // run bench.Fig13 with one worker per CPU
}

// Workers is how many simulations the workload runs at once.
func (w workload) Workers() int {
	if w.Sweep {
		return runtime.NumCPU()
	}
	return 1
}

var workloads = []workload{
	{
		Name:  "graph-fifer",
		Scale: 1,
		Jobs: []job{
			{"BFS", "Hu", apps.FiferPipe}, {"CC", "Hu", apps.FiferPipe},
			{"PRD", "Hu", apps.FiferPipe}, {"Radii", "Hu", apps.FiferPipe},
		},
	},
	{
		Name:  "sparse-silo",
		Scale: 2,
		Jobs: func() []job {
			var js []job
			for _, in := range sparse.Inputs {
				js = append(js, job{spmm.Name, string(in), apps.FiferPipe})
			}
			return append(js, job{silo.Name, "YCSB-C", apps.FiferPipe})
		}(),
	},
	{
		Name:  "fig13-sweep",
		Scale: 0,
		Sweep: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate runs the public generators that build app's inputs, exactly as
// the app's Run does before it simulates, and records a span per call.
func generate(tr *tracer, parent int, app, input string, scale int, seed uint64) {
	gen := func(name string, f func()) {
		id := tr.begin(parent, "generator", name)
		f()
		tr.end(id)
	}
	switch app {
	case spmm.Name:
		var m *sparse.CSR
		gen("sparse.Generate/"+input, func() { m = sparse.Generate(sparse.Input(input), scale, seed) })
		gen("sparse.Transpose/"+input, func() { sparse.Transpose(m) })
	case silo.Name:
		gen("silo.GenerateDataset", func() { silo.GenerateDataset(scale, seed) })
	default:
		gen("graph.Generate/"+input, func() { graph.Generate(graph.Input(input), graph.Scale(scale), seed) })
	}
}

// simResult is one simulation's outcome as the pass saw it.
type simResult struct {
	Key     string
	Outcome apps.Outcome
	Err     error
}

// passResult is everything one pass measured.
type passResult struct {
	Wall   time.Duration // simulating: the RunOne or Fig13 calls
	Setup  time.Duration // the generator calls
	Alloc  uint64        // heap bytes allocated over the whole pass
	Sims   []simResult   // in job order
	JobSec map[string]float64
}

// SimCycles sums the pass's simulated cycles.
func (p passResult) SimCycles() uint64 {
	var c uint64
	for _, s := range p.Sims {
		c += s.Outcome.Cycles
	}
	return c
}

// runPass runs the workload once. tr is nil on untraced runs; on traced
// runs every job also carries its key as a pprof label.
func (w workload) runPass(tr *tracer, seed uint64) passResult {
	a0 := heapAllocs()
	pass := tr.begin(-1, "pass", w.Name)
	var p passResult
	if w.Sweep {
		p = w.sweepPass(tr, pass, seed)
	} else {
		p = w.serialPass(tr, pass, seed)
	}
	tr.end(pass)
	p.Alloc = heapAllocs() - a0
	return p
}

func (w workload) serialPass(tr *tracer, pass int, seed uint64) passResult {
	p := passResult{JobSec: map[string]float64{}}
	opt := bench.Options{Scale: w.Scale, Seed: seed}
	for _, j := range w.Jobs {
		key := j.key()
		id := tr.begin(pass, "job", key)
		t0 := time.Now()
		generate(tr, id, j.App, j.Input, w.Scale, seed)
		t1 := time.Now()
		var out apps.Outcome
		var err error
		tr.labeled(key, func() {
			sim := tr.begin(id, "sim", key)
			out, err = bench.RunOne(j.App, j.Input, j.Kind, false, opt, nil)
			tr.end(sim)
		})
		t2 := time.Now()
		tr.end(id)
		p.Setup += t1.Sub(t0)
		p.Wall += t2.Sub(t1)
		p.JobSec[key] = t2.Sub(t1).Seconds()
		p.Sims = append(p.Sims, simResult{Key: key, Outcome: out, Err: err})
	}
	return p
}

func (w workload) sweepPass(tr *tracer, pass int, seed uint64) passResult {
	var p passResult
	setup := tr.begin(pass, "job", "setup")
	t0 := time.Now()
	// The graph apps share their inputs: each graph is generated once.
	for _, in := range graph.Inputs {
		generate(tr, setup, "graph", string(in), w.Scale, seed)
	}
	for _, in := range sparse.Inputs {
		generate(tr, setup, spmm.Name, string(in), w.Scale, seed)
	}
	generate(tr, setup, silo.Name, "", w.Scale, seed)
	t1 := time.Now()
	tr.end(setup)

	// The runner hands jobs to its workers in Fig13's submission order
	// (app, input, system) over an unbuffered channel, so with W workers
	// job k starts when the (k-W+1)th completion frees a worker: job spans
	// are rebuilt from completion times.
	workers := w.Workers()
	opt := bench.Options{Scale: w.Scale, Seed: seed, Jobs: workers}
	if tr != nil {
		index := map[string]int{}
		for _, app := range bench.AppNames {
			for _, in := range bench.InputsOf(app) {
				for _, k := range apps.Kinds {
					index[job{app, in, k}.key()] = len(index)
				}
			}
		}
		var done []time.Time
		opt.Progress = func(_, _ int, res bench.JobResult) {
			now := time.Now()
			key := job{res.Job.App, res.Job.Input, res.Job.Kind}.key()
			start := t1
			if k := index[key]; k >= workers {
				start = done[k-workers]
			}
			done = append(done, now)
			tr.add(pass, "job", key, start, now)
		}
	}
	var data *bench.Fig13Data
	var err error
	tr.labeled("fig13", func() { data, err = bench.Fig13(opt) })
	t2 := time.Now()
	p.Setup, p.Wall = t1.Sub(t0), t2.Sub(t1)
	if err != nil {
		p.Sims = []simResult{{Key: "fig13", Err: err}}
		return p
	}
	for _, c := range data.Cells {
		for _, k := range apps.Kinds {
			key := job{c.App, c.Input, k}.key()
			if cls := c.Failed(k); cls != "" {
				p.Sims = append(p.Sims, simResult{Key: key, Err: fmt.Errorf("fig13: %s failed: %s", key, cls)})
				continue
			}
			p.Sims = append(p.Sims, simResult{Key: key, Outcome: c.Outcomes[k]})
		}
	}
	return p
}
