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
		out, err := apps.Run(kind, 2, false, small, app(ds))
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
		out, err := apps.Run(kind, 2, true, small, app(ds))
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
	out, err := apps.Run(apps.FiferPipe, 2, false, small, app(ds))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("unverified")
	}
}

var sinkDataset Dataset

// BenchmarkGenerateDataset builds the scale-2 Silo dataset: a million
// records and the YCSB-C lookup stream over them.
func BenchmarkGenerateDataset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDataset = GenerateDataset(2, uint64(i)+1)
	}
}
