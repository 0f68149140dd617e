package bench

import (
	"reflect"
	"strings"
	"testing"

	"fifer/internal/apps"
)

func TestInputsOf(t *testing.T) {
	for _, app := range AppNames {
		if len(InputsOf(app)) == 0 {
			t.Fatalf("%s: no inputs", app)
		}
	}
	if len(InputsOf("BFS")) != 5 || len(InputsOf("SpMM")) != 6 || len(InputsOf("Silo")) != 1 {
		t.Fatal("input registries wrong")
	}
}

func TestRunOneUnknownApp(t *testing.T) {
	if _, err := RunOne("nope", "x", apps.FiferPipe, false, DefaultOptions(), nil); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestOptionsSubset(t *testing.T) {
	opt := Options{Apps: []string{"BFS"}}
	if got := opt.selected(); len(got) != 1 || got[0] != "BFS" {
		t.Fatalf("selected = %v", got)
	}
	if got := (Options{}).selected(); len(got) != len(AppNames) {
		t.Fatal("default selection wrong")
	}
}

// TestJobEnumerationMatrix pins the exact app × input matrix the paper's
// Tables 3/4 define, in the paper's order: this is what every driver's job
// enumeration fans out over.
func TestJobEnumerationMatrix(t *testing.T) {
	wantApps := []string{"BFS", "CC", "PRD", "Radii", "SpMM", "Silo"}
	if !reflect.DeepEqual(AppNames, wantApps) {
		t.Fatalf("AppNames = %v, want %v (paper order)", AppNames, wantApps)
	}
	graphInputs := []string{"Hu", "Dy", "Ci", "In", "Rd"}
	inputCases := []struct {
		app  string
		want []string
	}{
		{"BFS", graphInputs},
		{"CC", graphInputs},
		{"PRD", graphInputs},
		{"Radii", graphInputs},
		{"SpMM", []string{"FS", "Gr", "GE", "EM", "FD", "St"}},
		{"Silo", []string{"YCSB-C"}},
	}
	for _, tc := range inputCases {
		if got := InputsOf(tc.app); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("InputsOf(%s) = %v, want %v", tc.app, got, tc.want)
		}
	}

	selCases := []struct {
		name string
		opt  Options
		want []string
	}{
		{"nil means all, paper order", Options{}, wantApps},
		{"empty slice means all", Options{Apps: []string{}}, wantApps},
		{"subset kept as given", Options{Apps: []string{"SpMM", "BFS"}}, []string{"SpMM", "BFS"}},
		{"single app", Options{Apps: []string{"Silo"}}, []string{"Silo"}},
		{"unknown app passed through", Options{Apps: []string{"Nope"}}, []string{"Nope"}},
	}
	for _, tc := range selCases {
		if got := tc.opt.selected(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: selected() = %v, want %v", tc.name, got, tc.want)
		}
	}

	// An unknown app survives selection but fails at dispatch — through the
	// driver it surfaces as an error, not a panic or a silent skip.
	if _, err := Fig13(Options{Scale: 0, Seed: 1, Apps: []string{"Nope"}}); err == nil {
		t.Fatal("Fig13 with unknown app succeeded")
	}
}

func TestFig13SingleApp(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}}
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(d.Cells))
	}
	for _, c := range d.Cells {
		for _, kind := range apps.Kinds {
			if !c.Outcomes[kind].Verified {
				t.Fatalf("%s/%s %v unverified", c.App, c.Input, kind)
			}
		}
		if c.Speedup(apps.MulticoreOOO) != 1.0 {
			t.Fatal("normalization broken")
		}
	}
	if d.GMeanSpeedup("BFS", apps.FiferPipe, apps.StaticPipe) <= 1 {
		t.Fatal("Fifer not faster than static on BFS")
	}
	var b strings.Builder
	d.Print(&b)
	d.PrintFig14(&b, opt)
	d.PrintFig15(&b, opt)
	d.PrintTable5(&b, opt)
	for _, want := range []string{"Figure 13", "Figure 14", "Figure 15", "Table 5", "fifer-16pe"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestZeroCostNeverSlower(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1, Apps: []string{"SpMM"}}
	r, err := ZeroCost(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.GMean < 0.99 {
		t.Fatalf("zero-cost reconfig gmean %.2f < 1", r.GMean)
	}
}

// BenchmarkFig13Scale0Sweep runs the whole Fig. 13 sweep at scale 0 on two
// workers, the sweep perfbench's fig13-sweep workload times. Its B/op is
// what one sweep allocates, shared inputs and derived values included.
func BenchmarkFig13Scale0Sweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := Fig13(Options{Scale: 0, Seed: 1, Jobs: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range d.Cells {
			for _, kind := range apps.Kinds {
				if cls := c.Failed(kind); cls != "" {
					b.Fatalf("%s/%s %v failed: %s", c.App, c.Input, kind, cls)
				}
			}
		}
	}
}
