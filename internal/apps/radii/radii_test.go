package radii

import (
	"testing"

	"fifer/internal/apps"
)

func TestRadiiAllSystemsVerified(t *testing.T) {
	for _, kind := range apps.Kinds {
		out, err := Run(kind, "Hu", 0, 1, false, nil)
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
	a, err := Run(apps.SerialOOO, "Dy", 0, 9, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(apps.SerialOOO, "Dy", 0, 9, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestRadiiMergedVerified(t *testing.T) {
	out, err := Run(apps.StaticPipe, "Hu", 0, 4, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("merged Radii unverified")
	}
}
