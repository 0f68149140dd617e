package graphpipe_test

import (
	"fmt"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/apps/bfs"
	"fifer/internal/apps/cc"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/apps/radii"
	"fifer/internal/bench"
)

// TestSharedDFGsUnchanged fingerprints every stage DFG the package shares
// between systems, runs a two-worker Fig. 13 sweep of its apps at scale 0
// and each app's merged pipelines, and requires every fingerprint unchanged:
// placing and running a stage must never write to its shared DFG.
func TestSharedDFGsUnchanged(t *testing.T) {
	fingerprint := func() string {
		s := ""
		for _, g := range graphpipe.SharedDFGs {
			s += fmt.Sprintf("%+v\n", *g)
		}
		return s
	}
	before := fingerprint()
	opt := bench.Options{Scale: 0, Seed: 1, Jobs: 2, Apps: []string{bfs.Name, cc.Name, radii.Name}}
	d, err := bench.Fig13(opt)
	if err != nil || d.Failed() != 0 {
		t.Fatalf("Fig13: err %v, %d failed jobs", err, d.Failed())
	}
	for _, app := range opt.Apps {
		for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
			if _, err := bench.RunOne(app, bench.InputsOf(app)[0], kind, true, opt, nil); err != nil {
				t.Fatalf("merged %v %s: %v", kind, app, err)
			}
		}
	}
	if after := fingerprint(); after != before {
		t.Fatalf("a run changed a shared DFG:\nbefore %s\nafter  %s", before, after)
	}
}
