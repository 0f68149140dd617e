// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public entry points (bench.RunOne, bench.Fig13)
// pass after pass for a fixed number of seconds, checks every simulation,
// and prints one JSON result line last. With -trace 1 it instead reports
// per-layer numbers from a CPU profile and spans. README.md lists the
// workloads, the metrics and what each per-layer number should move.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload graph-fifer --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: graph-fifer, sparse-silo or fig13-sweep")
	seed := fs.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a profiled run instead of end-to-end ones")
	out := fs.String("out", ".bench_build/trace", "directory for the traced run's spans and CPU profile")
	update := fs.Bool("update-digests", false, "run one pass at the default seed and record its digests in "+digestFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (graph-fifer, sparse-silo, fig13-sweep), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	if *update {
		if err := updateDigests(w); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	set := newSettings(w, *seed, *seconds, *traced == 1)
	printJSON(stdout, "settings: ", set)
	chk, err := newChecker(w.Scale, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The reference pass runs the default seed's inputs, whose outcomes are
	// pinned by the committed digests, so every run checks the simulated
	// results exactly whatever its seed; it also warms the process up
	// before anything is timed.
	runtime.GC()
	ref := w.runPass(nil, defaultSeed)
	chk.check(ref, defaultSeed)

	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = layerMetrics(w, *seed, budget, chk, *out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		metrics = endToEndMetrics(w, ref, measure(w, nil, *seed, budget, chk), stdout)
	}
	printJSON(stdout, "", result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	})
	return 0
}

// measure runs passes of w until another one would overrun budget (at
// least one pass), checking every simulation. Each pass starts from a
// collected heap so passes do not inherit each other's garbage.
func measure(w workload, tr *tracer, seed uint64, budget time.Duration, chk *checker) []passResult {
	start := time.Now()
	var passes []passResult
	var lengths []float64
	for {
		runtime.GC()
		t0 := time.Now()
		p := w.runPass(tr, seed)
		lengths = append(lengths, time.Since(t0).Seconds())
		chk.check(p, seed)
		passes = append(passes, p)
		next := time.Duration(Median(lengths) * float64(time.Second))
		if time.Since(start)+next > budget {
			return passes
		}
	}
}

// endToEndMetrics reduces untraced passes to the metrics a user sees, each
// the median over passes, and prints every timing's full summary.
// sim_cycles is the reference pass's: the same on every run of one program.
func endToEndMetrics(w workload, ref passResult, passes []passResult, stdout io.Writer) map[string]metric {
	var wall, setup, rate, alloc []float64
	jobs := map[string][]float64{}
	for _, p := range passes {
		wall = append(wall, p.Wall.Seconds())
		setup = append(setup, p.Setup.Seconds())
		rate = append(rate, float64(p.SimCycles())/p.Wall.Seconds())
		alloc = append(alloc, float64(p.Alloc)/(1<<20))
		for k, v := range p.JobSec {
			jobs[k] = append(jobs[k], v)
		}
	}
	printJSON(stdout, "summary wall_s: ", Summarize(wall))
	printJSON(stdout, "summary setup_s: ", Summarize(setup))
	for _, j := range w.Jobs {
		printJSON(stdout, "summary job_s "+j.key()+": ", Summarize(jobs[j.key()]))
	}
	return map[string]metric{
		"wall_s":           {Median(wall), "s"},
		"sim_cycles_per_s": {Median(rate), "1/s"},
		"setup_s":          {Median(setup), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
		"alloc_mb":         {Median(alloc), "MiB"},
		"sim_cycles":       {float64(ref.SimCycles()), "cycles"},
	}
}

// layerMetrics is the traced run: half the budget runs untraced passes,
// the other half runs traced passes under the CPU profiler with spans and
// pprof job labels. Profile buckets become per-pass self times; work counts
// come exactly from the outcomes of one pass.
func layerMetrics(w workload, seed uint64, budget time.Duration, chk *checker, dir string, stdout io.Writer) (map[string]metric, error) {
	plain := measure(w, nil, seed, budget/2, chk)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := measure(w, tr, seed, budget/2, chk)
	pprof.StopCPUProfile()

	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "profile: %s.cpu.pprof, spans: %s.spans.json\n", base, base)

	samples, err := ParseCPUProfile(&prof)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	buckets, total := Bucket(samples)
	n := float64(len(traced))
	if other := OtherPackages(samples); len(other) > 0 {
		if len(other) > 6 {
			other = other[:6]
		}
		fmt.Fprintf(stdout, "profile other (CPU over %d traced passes): %s\n", len(traced), strings.Join(other, ", "))
	}
	m := map[string]metric{}
	for _, l := range Layers {
		m[l] = metric{buckets[l] / n, "s"}
	}
	cpuPerPass := total / n
	m["profile.cpu_s"] = metric{cpuPerPass, "s"}

	c := countsOf(traced[0])
	for _, k := range countNames {
		m[k] = metric{c[k], "count"}
	}
	pe := c["core.pe_cycles"]
	for _, b := range cpiBuckets {
		m["core.cpi_"+b+"_frac"] = metric{ratio(c["cpi."+b], pe), "frac"}
	}
	self := func(l string) float64 { return buckets[l] / n }
	m["core.ns_per_pe_cycle"] = metric{1e9 * ratio(self("core.self_s"), pe), "ns"}
	m["mem.ns_per_access"] = metric{1e9 * ratio(self("mem.self_s"), c["mem.l1_accesses"]+c["mem.llc_accesses"]), "ns"}
	m["queue.ns_per_token"] = metric{1e9 * ratio(self("queue.self_s"), c["queue.tokens"]), "ns"}
	m["stage.ns_per_firing"] = metric{1e9 * ratio(self("stage.self_s"), c["core.firings"]), "ns"}
	m["ooo.ns_per_instr"] = metric{1e9 * ratio(self("ooo.self_s"), c["ooo.instrs"]), "ns"}
	m["runtime.gc_frac"] = metric{ratio(buckets["runtime.gc_s"], total), "frac"}
	m["bench.overhead_frac"] = metric{ratio(buckets["bench.self_s"], total), "frac"}

	var passSec, tracedWall, plainWall []float64
	for _, p := range traced {
		passSec = append(passSec, (p.Wall + p.Setup).Seconds())
		tracedWall = append(tracedWall, p.Wall.Seconds())
	}
	for _, p := range plain {
		plainWall = append(plainWall, p.Wall.Seconds())
	}
	m["sweep.parallel_eff"] = metric{ratio(cpuPerPass, Median(passSec)*float64(w.Workers())), "frac"}
	m["trace.overhead_frac"] = metric{ratio(Median(tracedWall), Median(plainWall)), "ratio"}
	printJSON(stdout, "summary traced wall_s: ", Summarize(tracedWall))
	printJSON(stdout, "summary untraced wall_s: ", Summarize(plainWall))
	return m, nil
}

// countNames lists the exact work counts taken from a pass's outcomes.
var countNames = []string{
	"core.pe_cycles", "core.firings", "core.reconfigs", "core.drm_accesses",
	"queue.tokens", "mem.l1_accesses", "mem.llc_accesses", "mem.hbm_lines",
	"cgra.config_bytes", "ooo.instrs",
}

// cpiBuckets names the CPI-stack buckets; issued is the useful fraction of
// PE-cycles.
var cpiBuckets = []string{"issued", "stall", "queue", "reconfig", "idle"}

// countsOf sums a pass's work counts by name (countNames, plus "cpi.<bucket>"
// for the summed CPI stack).
func countsOf(p passResult) map[string]float64 {
	c := map[string]float64{}
	for _, s := range p.Sims {
		o := s.Outcome
		c["core.pe_cycles"] += float64(o.Pipe.Total.Total())
		c["core.firings"] += float64(o.Pipe.Firings)
		c["core.reconfigs"] += float64(o.Pipe.Reconfigs)
		c["core.drm_accesses"] += float64(o.Counts.DRMAccesses)
		c["queue.tokens"] += float64(o.Counts.QueueTokens)
		c["mem.l1_accesses"] += float64(o.Counts.L1Accesses)
		c["mem.llc_accesses"] += float64(o.Counts.LLCAccesses)
		c["mem.hbm_lines"] += float64(o.Counts.MemLines)
		c["cgra.config_bytes"] += float64(o.Counts.ConfigBytes)
		c["ooo.instrs"] += float64(o.Counts.Instrs)
		t := o.Pipe.Total
		for i, v := range []uint64{t.Issued, t.Stall, t.Queue, t.Reconfig, t.Idle} {
			c["cpi."+cpiBuckets[i]] += float64(v)
		}
	}
	return c
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printJSON writes v as one JSON line after prefix.
func printJSON(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are printed
	}
	fmt.Fprintf(w, "%s%s\n", prefix, b)
}
