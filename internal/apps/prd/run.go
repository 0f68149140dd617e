package prd

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/ooo"
)

func backingFor(g *graph.Graph) int {
	n, m := g.NumVertices(), g.NumEdges()
	words := 8*n + m + 4096
	return words*mem.WordBytes*2 + (1 << 20)
}

// app is PageRank-Delta on g at the given workload scale, ready for
// apps.Run. Its output is the Q32.32 rank array.
func app(g *graph.Graph, cfg graph.PRDConfig, scale int) apps.App[[]uint64] {
	return apps.App[[]uint64]{
		Name:         "prd",
		BackingBytes: backingFor(g),
		// Known gap 5 (EXPERIMENTS.md): PRD's static and Fifer systems
		// have always run with the full-size LLC, while its OOO baselines
		// and every other app get the scaled one. This undoes apps.Run's
		// scaling so the committed results stay put. Deleting it is the fix;
		// that moves PRD's cycles at scale 1 and above and every PRD CGRA
		// digest, which records the LLC size.
		Tweak: func(c *core.Config) { c.Hier.LLCBytes *= apps.LLCDivisor(scale) },
		OOO:   func(m *ooo.Machine) []uint64 { return runOOO(m, g, cfg) },
		Build: func(sys *core.System, merged bool) (core.Program, func() []uint64) {
			p := build(sys, g, cfg, merged)
			p.start()
			return p, p.ranks
		},
		Check: func(got []uint64) error {
			want := graph.PRD(g, cfg)
			for v := range want {
				if got[v] != want[v] {
					return fmt.Errorf("vertex %d rank %d, want %d", v, got[v], want[v])
				}
			}
			return nil
		},
	}
}
