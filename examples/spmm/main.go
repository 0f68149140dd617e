// Example: SpMM's control-intensive behavior — the merge-intersect stage
// reconfigures very frequently on sparse matrices, which is why SpMM is the
// paper's showcase for double-buffered configuration cells (Sec. 8.3) and
// for merged pipelines (Sec. 8.4).
package main

import (
	"fmt"
	"log"

	"fifer"
)

func main() {
	opt := fifer.Options{Scale: 0, Seed: 1}

	fmt.Println("== Reconfiguration behavior across Table 4 matrices (Fifer 16-PE) ==")
	for _, input := range fifer.InputsOf("SpMM") {
		out, err := fifer.RunApp("SpMM", input, fifer.FiferPipe, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s %9d cycles | %6d reconfigs | residence %5.0f cyc (paper SpMM mean: 30 cyc)\n",
			input, out.Cycles, out.Pipe.Reconfigs, out.Pipe.MeanResidence)
	}

	fmt.Println("\n== Double-buffered configuration cells (Fig. 16's SpMM panel) ==")
	for _, input := range []string{"FS", "St"} {
		base, err := fifer.RunApp("SpMM", input, fifer.FiferPipe, opt)
		if err != nil {
			log.Fatal(err)
		}
		noDB, err := fifer.RunApp("SpMM", input, fifer.FiferPipe, opt, func(cfg *fifer.Config) {
			cfg.DoubleBuffered = false
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s without double buffering: %.2fx slower\n",
			input, float64(noDB.Cycles)/float64(base.Cycles))
	}

	fmt.Println("\n== Merged single-stage pipeline (Sec. 8.4) ==")
	for _, input := range []string{"FS", "St"} {
		static, err := fifer.RunApp("SpMM", input, fifer.StaticPipe, opt)
		if err != nil {
			log.Fatal(err)
		}
		merged, err := fifer.Job{App: "SpMM", Input: input, Kind: fifer.StaticPipe, Merged: true}.Run(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s merged static vs decoupled static: %.2fx\n",
			input, float64(static.Cycles)/float64(merged.Cycles))
	}
	fmt.Println("\nPaper's observation: merging helps small/sparse matrices (FS, Gr) where")
	fmt.Println("merge-intersections finish after a few elements and trigger frequent switches.")
}
