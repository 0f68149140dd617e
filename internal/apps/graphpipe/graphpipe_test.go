package graphpipe

import (
	"testing"

	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
)

func smallConfig(mode core.Mode, pes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.PEs = pes
	cfg.BackingBytes = 64 << 20
	cfg.MaxCycles = 50_000_000
	return cfg
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.RMAT("t", 500, 1500, 0.5, sim.NewRand(7))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func runBFS(t *testing.T, g *graph.Graph, cfg core.Config, merged bool) []uint64 {
	t.Helper()
	sys := core.NewSystem(cfg)
	p := Build(sys, g, Options{Mode: ModeBFS, Merged: merged, Sources: []int{0}})
	res, err := p.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return p.Labels()
}

func TestBFSFiferMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := graph.BFS(g, 0)
	got := runBFS(t, g, smallConfig(core.ModeFifer, 4), false)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: got dist %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSStaticMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := graph.BFS(g, 0)
	got := runBFS(t, g, smallConfig(core.ModeStatic, 8), false)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: got dist %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSMergedMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := graph.BFS(g, 0)
	for _, mode := range []core.Mode{core.ModeFifer, core.ModeStatic} {
		got := runBFS(t, g, smallConfig(mode, 4), true)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v merged: vertex %d: got %d, want %d", mode, v, got[v], want[v])
			}
		}
	}
}

func TestCCMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := graph.CC(g)
	for _, mode := range []core.Mode{core.ModeFifer, core.ModeStatic} {
		sys := core.NewSystem(smallConfig(mode, 4))
		p := Build(sys, g, Options{Mode: ModeCC})
		if _, err := p.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := p.Labels()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v: vertex %d: got comp %d, want %d", mode, v, got[v], want[v])
			}
		}
	}
}

func TestRadiiMatchesReference(t *testing.T) {
	g := testGraph(t)
	sources := []int{0, 3, 17}
	want := graph.Radii(g, sources)
	sys := core.NewSystem(smallConfig(core.ModeFifer, 4))
	p := Build(sys, g, Options{Mode: ModeRadii, Sources: sources})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	got := p.Radii()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: got radius %d, want %d", v, got[v], want[v])
		}
	}
}

func TestFiferFasterThanStaticOnSkewedGraph(t *testing.T) {
	g := graph.RMAT("skew", 2000, 12000, 0.6, sim.NewRand(11))
	run := func(mode core.Mode) uint64 {
		sys := core.NewSystem(smallConfig(mode, 8))
		p := Build(sys, g, Options{Mode: ModeBFS, Sources: []int{0}})
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fifer := run(core.ModeFifer)
	static := run(core.ModeStatic)
	if fifer >= static {
		t.Fatalf("Fifer (%d cycles) not faster than static (%d cycles) on a skewed graph", fifer, static)
	}
}
