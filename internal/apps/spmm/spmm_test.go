package spmm

import (
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/sparse"
)

func small(cfg *core.Config) {
	cfg.PEs = 6
	cfg.MaxCycles = 100_000_000
}

func TestSpMMAllSystemsMatchReference(t *testing.T) {
	a := sparse.Generate(sparse.GE, 0, 3)
	b := sparse.Transpose(a)
	rows, cols := sampleFor(a, 0)
	for _, kind := range apps.Kinds {
		out, err := apps.Run(kind, 2, false, small, app(a, b, rows[:16], cols[:16]))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified || out.Cycles == 0 {
			t.Fatalf("%v: unverified or zero cycles", kind)
		}
	}
}

func TestSpMMMergedMatchesReference(t *testing.T) {
	a := sparse.Generate(sparse.FS, 0, 5)
	b := sparse.Transpose(a)
	rows, cols := sampleFor(a, 0)
	for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
		out, err := apps.Run(kind, 2, true, small, app(a, b, rows[:16], cols[:16]))
		if err != nil {
			t.Fatalf("%v merged: %v", kind, err)
		}
		if !out.Verified {
			t.Fatalf("%v merged: unverified", kind)
		}
	}
}
