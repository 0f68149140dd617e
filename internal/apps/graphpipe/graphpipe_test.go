package graphpipe

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
)

// pes shrinks a run to n PEs with a test-sized cycle budget.
func pes(n int) func(*core.Config) {
	return func(cfg *core.Config) {
		cfg.PEs = n
		cfg.MaxCycles = 50_000_000
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.RMAT("t", 500, 1500, 0.5, sim.NewRand(7))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// run executes mode on g through apps.Run, which checks the output against
// the reference algorithm. Scale 2 keeps the full-size LLC.
func run(t *testing.T, kind apps.SystemKind, mode Mode, g *graph.Graph, sources []int, merged bool, npes int) apps.Outcome {
	t.Helper()
	out, err := apps.Run(kind, 2, merged, pes(npes), nil, App(mode, g, sources))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified || out.Cycles == 0 {
		t.Fatalf("%v %v: verified=%v after %d cycles", kind, mode, out.Verified, out.Cycles)
	}
	return out
}

func TestBFSFiferMatchesReference(t *testing.T) {
	run(t, apps.FiferPipe, ModeBFS, testGraph(t), []int{0}, false, 4)
}

func TestBFSStaticMatchesReference(t *testing.T) {
	run(t, apps.StaticPipe, ModeBFS, testGraph(t), []int{0}, false, 8)
}

func TestBFSMergedMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, kind := range []apps.SystemKind{apps.FiferPipe, apps.StaticPipe} {
		run(t, kind, ModeBFS, g, []int{0}, true, 4)
	}
}

func TestCCMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, kind := range []apps.SystemKind{apps.FiferPipe, apps.StaticPipe} {
		run(t, kind, ModeCC, g, nil, false, 4)
	}
}

func TestRadiiMatchesReference(t *testing.T) {
	run(t, apps.FiferPipe, ModeRadii, testGraph(t), []int{0, 3, 17}, false, 4)
}

func TestFiferFasterThanStaticOnSkewedGraph(t *testing.T) {
	g := graph.RMAT("skew", 2000, 12000, 0.6, sim.NewRand(11))
	fifer := run(t, apps.FiferPipe, ModeBFS, g, []int{0}, false, 8).Cycles
	static := run(t, apps.StaticPipe, ModeBFS, g, []int{0}, false, 8).Cycles
	if fifer >= static {
		t.Fatalf("Fifer (%d cycles) not faster than static (%d cycles) on a skewed graph", fifer, static)
	}
}
