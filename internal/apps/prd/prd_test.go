package prd

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
)

func testGraph() *graph.Graph {
	return graph.RMAT("t", 400, 1200, 0.5, sim.NewRand(9))
}

func small(cfg *core.Config) {
	cfg.PEs = 5
	cfg.MaxCycles = 100_000_000
}

func smallMerged(cfg *core.Config) {
	cfg.PEs = 6
	cfg.MaxCycles = 100_000_000
}

func TestPRDAllSystemsMatchReference(t *testing.T) {
	g := testGraph()
	cfg := graph.DefaultPRD()
	for _, kind := range apps.Kinds {
		ov := small
		out, err := apps.Run(kind, 2, false, ov, nil, app(g, cfg, 2))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified || out.Cycles == 0 {
			t.Fatalf("%v: unverified or zero cycles", kind)
		}
	}
}

func TestPRDMergedMatchesReference(t *testing.T) {
	g := testGraph()
	cfg := graph.DefaultPRD()
	for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
		out, err := apps.Run(kind, 2, true, smallMerged, nil, app(g, cfg, 2))
		if err != nil {
			t.Fatalf("%v merged: %v", kind, err)
		}
		if !out.Verified {
			t.Fatalf("%v merged: unverified", kind)
		}
	}
}
