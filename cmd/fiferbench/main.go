// Command fiferbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	fiferbench                      # everything, small scale
//	fiferbench -exp fig13           # one experiment
//	fiferbench -exp fig16 -apps BFS,SpMM -scale 0
//	fiferbench -exp fig13 -j 8      # fan simulations out over 8 workers
//
// Experiments: table1 table2 table3 table4 fig13 fig14 fig15 fig16 fig17
// table5 zerocost all.
//
// -j sets how many simulations run concurrently (default: all CPUs). The
// output is byte-identical for every -j value, including -j 1 (fully
// serial): each simulation is self-contained and results are collected in
// submission order.
//
// -watchdog and -audit tune the simulator's robustness layer: the progress
// watchdog window and the live invariant-audit period, in cycles. Both
// mechanisms only observe the simulation, so results are identical at any
// setting; 0 keeps the config defaults, -1 disables.
//
// Observability: -trace FILE writes every CGRA simulation's event stream as
// one Chrome/Perfetto trace-event JSON document (load it in a trace viewer
// or summarize it with fifertrace); -metrics FILE writes periodic per-PE
// CPI-stack/occupancy samples (JSONL, or CSV when FILE ends in .csv),
// and without -trace the jobs keep no events; -sample N sets the sample
// period in cycles. Tracing only observes the simulation — every table
// stays byte-identical with or without it.
//
// Performance: the simulator parks provably-inert PEs and skips cycles in
// which the whole machine is inert by default (DESIGN.md §10);
// -no-fast-forward runs the naive per-cycle loop instead — results are
// byte-identical, only wall time changes. With -trace or -metrics, every
// traced job also gets one stderr line saying what the kernel did: the
// share of PE-cycles it ticked, the cycles it jumped and its catch-ups.
// That line stays out of the trace and metrics files, which must not differ
// from the naive loop's. -cpuprofile/-memprofile write pprof profiles of
// whatever the invocation ran (see EXPERIMENTS.md §profiling).
//
// Crash-safe sweeps: -journal FILE appends every finished job to a
// checksummed JSONL journal; -resume (with the same -journal and workload
// flags) replays the completed jobs and runs only the remainder, producing
// byte-identical tables. -job-timeout bounds each job's wall-clock time.
// SIGINT/SIGTERM stops admitting jobs, cancels in-flight simulations
// cooperatively, flushes the journal, renders whatever completed in
// degraded mode, and exits nonzero with a summary; a second signal kills
// immediately. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"fifer"
	"fifer/internal/bench"
)

func main() { os.Exit(fiferbench()) }

func fiferbench() int {
	exp := flag.String("exp", "all", "experiment to run")
	scale := flag.Int("scale", 1, "workload scale: 0=tiny, 1=small, 2=medium")
	seed := flag.Uint64("seed", 1, "generator seed")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all)")
	jobs := flag.Int("j", runtime.NumCPU(), "concurrent simulations (1 = serial; output is identical for any value)")
	progress := flag.Bool("progress", false, "report per-simulation progress on stderr")
	watchdog := flag.Int64("watchdog", 0, "deadlock watchdog window in cycles (0 = config default, -1 = disable)")
	audit := flag.Int64("audit", 0, "invariant audit period in cycles (0 = config default, -1 = disable)")
	journalPath := flag.String("journal", "", "append every finished job to this crash-safe JSONL journal")
	resume := flag.Bool("resume", false, "resume from the -journal file: replay completed jobs, run only the remainder")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock deadline, e.g. 90s (0 = none)")
	tracePath := flag.String("trace", "", "write per-simulation event traces to this Chrome/Perfetto JSON file")
	metricsPath := flag.String("metrics", "", "write periodic per-PE metrics samples to this file (.csv extension = CSV, else JSONL)")
	sample := flag.Uint64("sample", 0, "metrics sample period in cycles (0 = default 4096)")
	noFF := flag.Bool("no-fast-forward", false, "run the naive per-cycle loop instead of the parking kernel (identical results, slower)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()

	opt := bench.Options{Scale: *scale, Seed: *seed, Jobs: *jobs,
		WatchdogCycles: *watchdog, AuditCycles: *audit,
		JobTimeout: *jobTimeout, NoFastForward: *noFF}
	if *appsFlag != "" {
		opt.Apps = strings.Split(*appsFlag, ",")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiferbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fiferbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			runtime.GC() // settle the heap so the profile shows live data
			write := func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }
			if err := writeFileWith(path, write); err != nil {
				fmt.Fprintf(os.Stderr, "fiferbench: memprofile: %v\n", err)
			}
		}()
	}

	var sink *bench.TraceSink
	if *tracePath != "" || *metricsPath != "" {
		sink = bench.NewTraceSink(*sample)
		sink.MetricsOnly = *tracePath == "" // no trace file needs the events
		opt.Trace = sink
	}

	var journal *bench.Journal
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "fiferbench: -resume requires -journal")
		return 2
	}
	if *journalPath != "" {
		var err error
		if *resume {
			journal, err = bench.ResumeJournal(*journalPath, opt)
		} else {
			journal, err = bench.CreateJournal(*journalPath, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiferbench: %v\n", err)
			return 1
		}
		opt.Journal = journal
		if *resume {
			fmt.Fprintf(os.Stderr, "fiferbench: resuming from %s: %d completed job(s) will be replayed\n",
				*journalPath, journal.Replayed())
		}
	}

	// SIGINT/SIGTERM: stop admitting jobs and cancel in-flight simulations
	// through the cooperative core hook; finished work is already in the
	// journal. A second signal kills the process immediately.
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nfiferbench: %v: canceling — in-flight simulations stop at their next checkpoint, the journal is flushed, partial tables render degraded (repeat the signal to kill now)\n", s)
		close(cancel)
		<-sigc
		os.Exit(130)
	}()
	opt.Cancel = cancel

	// The summary counts every job the drivers report, whether or not
	// -progress echoes them.
	var okCnt, failedCnt, canceledCnt, replayedCnt int
	opt.Progress = func(done, total int, res bench.JobResult) {
		class := bench.ErrorClass(res.Err)
		switch class {
		case bench.ClassOK:
			okCnt++
		case bench.ClassCanceled, bench.ClassTimeout:
			canceledCnt++
		default:
			failedCnt++
		}
		if res.Replayed {
			replayedCnt++
		}
		if *progress {
			status := class
			if res.Replayed {
				status += " (replayed)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", done, total, res.Job.Key(), status)
		}
	}
	w := os.Stdout

	code := 0
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			if code == 0 {
				code = 1
			}
			return
		}
		fmt.Fprintln(w)
	}

	run("table1", func() error { bench.PrintTable1(w); return nil })
	run("table2", func() error { bench.PrintTable2(w); return nil })
	run("table3", func() error { bench.PrintTable3(w, opt); return nil })
	run("table4", func() error { bench.PrintTable4(w, opt); return nil })

	var fig13 *bench.Fig13Data
	needFig13 := func() error {
		if fig13 != nil {
			return nil
		}
		var err error
		fig13, err = fifer.Fig13(opt)
		return err
	}
	run("fig13", func() error {
		if err := needFig13(); err != nil {
			return err
		}
		fig13.Print(w)
		return nil
	})
	run("fig14", func() error {
		if err := needFig13(); err != nil {
			return err
		}
		fig13.PrintFig14(w, opt)
		return nil
	})
	run("fig15", func() error {
		if err := needFig13(); err != nil {
			return err
		}
		fig13.PrintFig15(w, opt)
		return nil
	})
	run("table5", func() error {
		if err := needFig13(); err != nil {
			return err
		}
		fig13.PrintTable5(w, opt)
		return nil
	})
	run("fig16", func() error {
		points, err := fifer.Fig16(opt)
		if err != nil {
			return err
		}
		bench.PrintFig16(w, points, opt)
		return nil
	})
	run("fig17", func() error {
		rows, err := fifer.Fig17(opt)
		if err != nil {
			return err
		}
		bench.PrintFig17(w, rows)
		return nil
	})
	run("zerocost", func() error {
		r, err := fifer.ZeroCost(opt)
		if err != nil {
			return err
		}
		bench.PrintZeroCost(w, r)
		return nil
	})

	// Observability exports: written even after a partial (interrupted or
	// failed) sweep, since a trace of what did run is exactly what a
	// post-mortem wants.
	if sink != nil {
		if *tracePath != "" {
			if err := writeFileWith(*tracePath, sink.WriteTrace); err != nil {
				fmt.Fprintf(os.Stderr, "fiferbench: trace: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}
		if *metricsPath != "" {
			writeMetrics := sink.WriteMetricsJSONL
			if strings.HasSuffix(*metricsPath, ".csv") {
				writeMetrics = sink.WriteMetricsCSV
			}
			if err := writeFileWith(*metricsPath, writeMetrics); err != nil {
				fmt.Fprintf(os.Stderr, "fiferbench: metrics: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}
		for _, j := range sink.Jobs() {
			k := j.Collector.Kernel()
			fmt.Fprintf(os.Stderr, "fiferbench: kernel %s: ticked %.1f%% of PE-cycles, jumped %d cycles, %d catch-ups\n",
				j.Key, 100*k.ExecutedShare(), k.Jumped, k.CatchUps)
		}
		if n := sink.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "fiferbench: trace ring overflowed: %d oldest event(s) dropped — the trace holds each run's suffix\n", n)
		}
	}

	if err := journal.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fiferbench: journal: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	interrupted := false
	select {
	case <-cancel:
		interrupted = true
	default:
	}
	if failedCnt > 0 || canceledCnt > 0 || interrupted {
		fmt.Fprintf(os.Stderr, "fiferbench: %d ok, %d failed, %d canceled/timed out (%d replayed)\n",
			okCnt, failedCnt, canceledCnt, replayedCnt)
		if *journalPath != "" {
			fmt.Fprintf(os.Stderr, "fiferbench: journal flushed to %s — rerun with -resume to pick up where this run stopped\n", *journalPath)
		}
		if interrupted {
			return 130
		}
		if code == 0 {
			code = 1
		}
	}
	return code
}

// writeFileWith creates path and streams write into it, reporting either
// the writer's or the file's first error.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
