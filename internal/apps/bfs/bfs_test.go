package bfs

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
)

func TestBFSAllSystemsVerified(t *testing.T) {
	cycles := map[apps.SystemKind]uint64{}
	for _, kind := range apps.Kinds {
		out, err := Run(kind, "Hu", 0, 1, false, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified {
			t.Fatalf("%v: not verified", kind)
		}
		cycles[kind] = out.Cycles
	}
	// The paper's ordering on collaboration graphs: Fifer < static < 4-core
	// < serial.
	if !(cycles[apps.FiferPipe] < cycles[apps.StaticPipe] &&
		cycles[apps.StaticPipe] < cycles[apps.MulticoreOOO] &&
		cycles[apps.MulticoreOOO] < cycles[apps.SerialOOO]) {
		t.Fatalf("ordering broken: %v", cycles)
	}
}

func TestBFSDeterministic(t *testing.T) {
	a, err := Run(apps.FiferPipe, "In", 0, 5, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(apps.FiferPipe, "In", 0, 5, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Pipe.Reconfigs != b.Pipe.Reconfigs {
		t.Fatalf("nondeterministic simulation: %d/%d vs %d/%d cycles/reconfigs",
			a.Cycles, a.Pipe.Reconfigs, b.Cycles, b.Pipe.Reconfigs)
	}
}

func TestBFSQueueScalingMonotoneEnough(t *testing.T) {
	// Metamorphic check behind Fig. 16: shrinking queue memory to a quarter
	// must not make BFS faster by more than noise, and should usually slow
	// it down.
	base, err := Run(apps.FiferPipe, "Hu", 0, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := Run(apps.FiferPipe, "Hu", 0, 1, false, func(cfg *core.Config) {
		*cfg = cfg.WithQueueScale(0.25)
	})
	if err != nil {
		t.Fatal(err)
	}
	if float64(quarter.Cycles) < 0.95*float64(base.Cycles) {
		t.Fatalf("quarter queues substantially faster (%d vs %d)", quarter.Cycles, base.Cycles)
	}
}
