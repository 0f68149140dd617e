package silo

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
)

func small(cfg *core.Config) {
	cfg.PEs = 8
	cfg.MaxCycles = 100_000_000
}

func tinyDataset() Dataset {
	ds := GenerateDataset(0, 42)
	ds.Lookups = ds.Lookups[:400]
	return ds
}

func TestSiloAllSystemsMatchReference(t *testing.T) {
	ds := tinyDataset()
	for _, kind := range apps.Kinds {
		out, err := runApp(kind, ds, 2, false, small)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified || out.Cycles == 0 {
			t.Fatalf("%v: unverified or zero cycles", kind)
		}
	}
}

func TestSiloMergedMatchesReference(t *testing.T) {
	ds := tinyDataset()
	for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
		out, err := runApp(kind, ds, 2, true, small)
		if err != nil {
			t.Fatalf("%v merged: %v", kind, err)
		}
		if !out.Verified {
			t.Fatalf("%v merged: unverified", kind)
		}
	}
}

func TestSiloMissingKeysReported(t *testing.T) {
	ds := tinyDataset()
	// Poison some lookups with keys that are not in the tree.
	for i := 0; i < len(ds.Lookups); i += 7 {
		ds.Lookups[i] = ds.Lookups[i] ^ 0x1
	}
	out, err := runApp(apps.FiferPipe, ds, 2, false, small)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("unverified")
	}
}
