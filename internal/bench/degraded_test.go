package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCanceledFig13RendersDegraded cancels a Fig. 13 sweep after k
// completions, serially and in parallel, and renders what finished: every
// job is reported exactly once, canceled cells print "!canceled", and each
// input whose four jobs all finished prints the same row as in an
// uninterrupted sweep.
func TestCanceledFig13RendersDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	baseOpt := Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}}
	base, err := Fig13(baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	base.Print(&full)
	want := tableRows(full.String())
	if len(want) != len(InputsOf("BFS")) {
		t.Fatalf("uninterrupted table has %d BFS rows, want %d", len(want), len(InputsOf("BFS")))
	}

	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, k := range []int{3, 9} {
			t.Run(fmt.Sprintf("j%d-k%d", workers, k), func(t *testing.T) {
				opt := baseOpt
				opt.Jobs = workers
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opt.Context = ctx
				seen := map[string]int{}
				jobs, canceled := 0, 0
				opt.Progress = func(done, total int, res JobResult) {
					seen[res.Job.Key()]++
					jobs = total
					if res.Err != nil {
						canceled++
					}
					if done >= k {
						cancel()
					}
				}
				d, err := Fig13(opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) != jobs {
					t.Fatalf("%d distinct jobs reported, sweep has %d", len(seen), jobs)
				}
				for key, n := range seen {
					if n != 1 {
						t.Fatalf("%s reported %d times, want exactly once", key, n)
					}
				}
				if d.Failed() != canceled {
					t.Fatalf("table counts %d missing job(s), progress reported %d", d.Failed(), canceled)
				}

				var b strings.Builder
				d.Print(&b)
				out := b.String()
				switch {
				case canceled > 0:
					if !strings.Contains(out, "!canceled") {
						t.Fatalf("%d job(s) missing but no cell prints !canceled:\n%s", canceled, out)
					}
				case workers == 1:
					t.Fatalf("serial sweep of %d jobs canceled after %d ran them all", jobs, k)
				default:
					// Every job beat the cancel (tiny sweep, many workers).
					t.Logf("nothing was canceled at k=%d with %d workers", k, workers)
				}
				got := tableRows(out)
				for _, c := range d.Cells {
					if len(c.Errs) > 0 {
						continue
					}
					if got[c.Input] != want[c.Input] {
						t.Errorf("complete row %s/%s differs from the uninterrupted sweep:\ngot:  %s\nwant: %s",
							c.App, c.Input, got[c.Input], want[c.Input])
					}
				}
			})
		}
	}
}

// tableRows maps each row of a BFS-only Fig. 13 rendering to its cells,
// keyed by input and joined by single spaces: a degraded placeholder can
// widen a column, which changes padding but no cell.
func tableRows(out string) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && slices.Contains(InputsOf("BFS"), f[0]) {
			rows[f[0]] = strings.Join(f, " ")
		}
	}
	return rows
}
