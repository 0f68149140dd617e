package cc

import (
	"testing"

	"fifer/internal/apps"
)

func TestCCAllSystemsVerified(t *testing.T) {
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

func TestCCMergedVerified(t *testing.T) {
	out, err := Run(apps.FiferPipe, "Ci", 0, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("merged CC unverified")
	}
}

func TestCCManyComponentsStillTerminates(t *testing.T) {
	// The internet-topology generator leaves many isolated vertices, so CC
	// exercises the seed-scan path heavily.
	out, err := Run(apps.FiferPipe, "In", 0, 3, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pipe.Rounds == 0 {
		t.Fatal("expected multiple control-core rounds")
	}
}
