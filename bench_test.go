// Benchmarks that regenerate the paper's tables and figures (one benchmark
// per table/figure, as indexed in DESIGN.md §4) plus ablation benches for
// the design choices DESIGN.md §6 calls out, and micro-benchmarks of the
// simulator substrates.
//
// The table/figure benches run at the tiny workload scale so `go test
// -bench=.` finishes in minutes; `cmd/fiferbench -scale 1` runs the same
// experiments at the paper-default scale with full reporting.
package fifer_test

import (
	"testing"

	"fifer"
	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/sim"
	"fifer/internal/sparse"
	"fifer/internal/ycsb"
)

func benchOpt() bench.Options { return bench.Options{Scale: 0, Seed: 1} }

// mustRun executes one combination, failing the benchmark on error.
func mustRun(b *testing.B, app, input string, kind apps.SystemKind, merged bool, override func(*core.Config)) apps.Outcome {
	b.Helper()
	out, err := bench.RunOne(app, input, kind, merged, benchOpt(), override)
	if err != nil {
		b.Fatal(err)
	}
	if !out.Verified {
		b.Fatalf("%s/%s on %v: result not verified", app, input, kind)
	}
	return out
}

// --- Table benches ---------------------------------------------------------

func BenchmarkTable1Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, nil)
		_ = fifer.EnergyBreakdown(out)
	}
}

func BenchmarkTable3Graphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, in := range graph.Inputs {
			g := graph.Generate(in, graph.ScaleTiny, 1)
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4Matrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, in := range sparse.Inputs {
			m := sparse.Generate(in, 0, 1)
			if err := m.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable5Residence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, nil)
		if out.Pipe.MeanResidence <= 0 {
			b.Fatal("no residence stats")
		}
	}
}

// --- Fig. 13: per-input performance (one benchmark per application) --------

func benchFig13App(b *testing.B, app string) {
	inputs := bench.InputsOf(app)
	for i := 0; i < b.N; i++ {
		for _, input := range inputs {
			for _, kind := range apps.Kinds {
				mustRun(b, app, input, kind, false, nil)
			}
		}
	}
}

func BenchmarkFig13_BFS(b *testing.B)   { benchFig13App(b, "BFS") }
func BenchmarkFig13_CC(b *testing.B)    { benchFig13App(b, "CC") }
func BenchmarkFig13_PRD(b *testing.B)   { benchFig13App(b, "PRD") }
func BenchmarkFig13_Radii(b *testing.B) { benchFig13App(b, "Radii") }
func BenchmarkFig13_SpMM(b *testing.B)  { benchFig13App(b, "SpMM") }
func BenchmarkFig13_Silo(b *testing.B)  { benchFig13App(b, "Silo") }

// --- Fig. 14/15: breakdowns (derived from the Fig. 13 runs) ----------------

func BenchmarkFig14CycleBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, nil)
		if out.Pipe.Total.Total() != out.Cycles*16 {
			b.Fatal("CPI stack does not cover all PE cycles")
		}
	}
}

func BenchmarkFig15Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		static := mustRun(b, "BFS", "Hu", fifer.StaticPipe, false, nil)
		ff := mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, nil)
		if fifer.EnergyBreakdown(ff).Total() >= fifer.EnergyBreakdown(static).Total() {
			b.Log("note: Fifer used more energy than static on this input")
		}
	}
}

// --- Fig. 16: queue-size and double-buffering sweep -------------------------

func BenchmarkFig16QueueSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, factor := range bench.Fig16Factors {
			for _, double := range []bool{true, false} {
				f, d := factor, double
				mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, func(cfg *core.Config) {
					*cfg = cfg.WithQueueScale(f)
					cfg.DoubleBuffered = d
				})
			}
		}
	}
}

// --- Fig. 17: merged-stage pipelines ----------------------------------------

func BenchmarkFig17MergedStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range bench.AppNames {
			input := bench.InputsOf(app)[0]
			mustRun(b, app, input, fifer.StaticPipe, false, nil)
			mustRun(b, app, input, fifer.StaticPipe, true, nil)
			mustRun(b, app, input, fifer.FiferPipe, false, nil)
		}
	}
}

// --- Sec. 8.3: zero-cost reconfiguration ------------------------------------

func BenchmarkZeroCostReconfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := mustRun(b, "SpMM", "FS", fifer.FiferPipe, false, nil)
		ideal := mustRun(b, "SpMM", "FS", fifer.FiferPipe, false, func(cfg *core.Config) {
			cfg.ZeroCostReconfig = true
		})
		if ideal.Cycles > base.Cycles {
			b.Fatal("free reconfiguration was slower")
		}
	}
}

// --- Ablations (DESIGN.md §6) ------------------------------------------------

func BenchmarkAblationSIMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, "BFS", "In", fifer.FiferPipe, false, nil)
		mustRun(b, "BFS", "In", fifer.FiferPipe, false, func(cfg *core.Config) {
			cfg.SIMDReplication = false
		})
	}
}

func BenchmarkAblationDRM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, "BFS", "In", fifer.FiferPipe, false, nil)
		// Crippled DRMs: single outstanding access, one issue per cycle —
		// approximating the loss of decoupled memory access (Sec. 5.4).
		mustRun(b, "BFS", "In", fifer.FiferPipe, false, func(cfg *core.Config) {
			cfg.DRMOutstanding = 1
			cfg.DRMIssueWidth = 1
		})
	}
}

// --- Per-application simulation benchmarks -----------------------------------
//
// One whole-simulation benchmark per app (first input, Fifer pipeline) with
// simulated cycles/s as the reported metric. The FastForward/Oracle
// sub-benchmarks time the same simulation under both execution modes, so
// `-bench BenchmarkRun` shows the parking kernel's win directly; repeated
// end-to-end timing with spread lives in perfbench/.

func benchRunApp(b *testing.B, app string) {
	input := bench.InputsOf(app)[0]
	for _, mode := range []struct {
		name   string
		oracle bool
	}{{"FastForward", false}, {"Oracle", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := benchOpt()
			opt.Override = func(cfg *fifer.Config) { cfg.NoFastForward = mode.oracle }
			var cycles uint64
			for i := 0; i < b.N; i++ {
				out, err := bench.RunOne(app, input, fifer.FiferPipe, false, opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				cycles += out.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

func BenchmarkRunBFS(b *testing.B)   { benchRunApp(b, "BFS") }
func BenchmarkRunCC(b *testing.B)    { benchRunApp(b, "CC") }
func BenchmarkRunPRD(b *testing.B)   { benchRunApp(b, "PRD") }
func BenchmarkRunRadii(b *testing.B) { benchRunApp(b, "Radii") }
func BenchmarkRunSpMM(b *testing.B)  { benchRunApp(b, "SpMM") }
func BenchmarkRunSilo(b *testing.B)  { benchRunApp(b, "Silo") }

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkQueueEnqDeq(b *testing.B) {
	q := queue.NewQueue("b", 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enq(queue.Data(uint64(i)))
		q.Deq()
	}
}

func BenchmarkCacheHit(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	back := mem.NewBacking(1 << 20)
	p := h.Port(0, back)
	a := back.AllocWords(8)
	p.Load(0, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i), a)
	}
}

func BenchmarkCacheMissStream(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	back := mem.NewBacking(256 << 20)
	p := h.Port(0, back)
	base := back.Alloc(128 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i)*4, base+mem.Addr(i%(1<<20))*64)
	}
}

func BenchmarkPlaceStage(b *testing.B) {
	g := cgra.NewDFG("bench")
	v := g.Deq(0)
	base := g.Const(0)
	addr := g.Add(cgra.OpLEA, 3, base, v)
	g.Enq(0, addr)
	fabric := cgra.DefaultFabric()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cgra.Place(g, fabric, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceBFS(b *testing.B) {
	g := graph.Generate(graph.Hu, graph.ScaleTiny, 1)
	src := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BFS(g, src)
	}
}

func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	// End-to-end simulator throughput: simulated PE-cycles per wall second.
	var cycles uint64
	for i := 0; i < b.N; i++ {
		out := mustRun(b, "BFS", "Hu", fifer.FiferPipe, false, nil)
		cycles += out.Cycles * 16
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "PE-cycles/s")
}

func BenchmarkZipfian(b *testing.B) {
	z := ycsb.NewZipfian(1_000_000, 0.99, sim.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
