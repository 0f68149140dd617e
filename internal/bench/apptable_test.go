package bench

import (
	"fmt"
	"strings"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// TestAppTable runs every app in the table on every system at scale 0: each
// run must be verified against its reference, and a CGRA run whose config
// is broken must fail with "<kind> <app>: …".
func TestAppTable(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	noPEs := func(cfg *core.Config) { cfg.PEs = 0 }
	for _, app := range AppNames {
		input := InputsOf(app)[0]
		for _, kind := range apps.Kinds {
			out, err := RunOne(app, input, kind, false, opt, nil)
			if err != nil {
				t.Fatalf("%s/%s %v: %v", app, input, kind, err)
			}
			if !out.Verified || out.Cycles == 0 {
				t.Errorf("%s/%s %v: verified=%v after %d cycles", app, input, kind, out.Verified, out.Cycles)
			}
			if kind != apps.StaticPipe && kind != apps.FiferPipe {
				continue
			}
			_, err = RunOne(app, input, kind, false, opt, noPEs)
			prefix := fmt.Sprintf("%v %s: ", kind, strings.ToLower(app))
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s/%s %v with no PEs: err = %v, want it to start %q", app, input, kind, err, prefix)
			}
		}
	}
}

// TestCGRALLCScaled pins the LLC each app's static and Fifer systems get at
// scales 0–2: the default LLC shrunk by apps.LLCDivisor, as the OOO
// baselines' is. PRD is the one exception (EXPERIMENTS.md known gap 5): its
// CGRA systems keep the full-size LLC. The fix must edit this test.
func TestCGRALLCScaled(t *testing.T) {
	fullLLC := core.DefaultConfig().Hier.LLCBytes
	for scale := 0; scale <= 2; scale++ {
		opt := Options{Scale: scale, Seed: 1}
		for _, app := range AppNames {
			want := fullLLC / apps.LLCDivisor(scale)
			if app == "PRD" {
				want = fullLLC // known gap 5
			}
			for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
				got := -1
				// Record the final config, then stop the run before it builds
				// anything: only the configuration is under test.
				_, err := RunOne(app, InputsOf(app)[0], kind, false, opt, func(cfg *core.Config) {
					got = cfg.Hier.LLCBytes
					cfg.PEs = 0
				})
				if err == nil {
					t.Fatalf("%s %v scale %d: a run with no PEs succeeded", app, kind, scale)
				}
				if got != want {
					t.Errorf("%s %v scale %d: LLC %d bytes, want %d", app, kind, scale, got, want)
				}
			}
		}
	}
}
