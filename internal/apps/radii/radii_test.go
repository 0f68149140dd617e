package radii

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
)

func TestRadiiAllSystemsVerified(t *testing.T) {
	for _, kind := range apps.Kinds {
		out, err := run(kind, "Hu", 0, 1, false, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified || out.Cycles == 0 {
			t.Fatalf("%v: unverified", kind)
		}
	}
}

func TestRadiiSameSourcesAcrossSystems(t *testing.T) {
	// All systems must sample identical sources for the comparison to be
	// apples-to-apples: same seed ⇒ deterministic outcome per system.
	a, err := run(apps.SerialOOO, "Dy", 0, 9, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(apps.SerialOOO, "Dy", 0, 9, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestRadiiMergedVerified(t *testing.T) {
	out, err := run(apps.StaticPipe, "Hu", 0, 4, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("merged Radii unverified")
	}
}

// run generates the named input and runs Radii on it.
func run(kind apps.SystemKind, input string, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return RunOn(kind, graph.Generate(graph.Input(input), graph.Scale(scale), seed), nil, scale, seed, merged, override)
}
