package graphpipe

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/ooo"
)

// backingFor sizes the simulated DRAM for a graph workload: CSR arrays,
// labels, radii, per-replica fringes, and configuration storage.
func backingFor(g *graph.Graph) int {
	n, m := g.NumVertices(), g.NumEdges()
	words := 6*n + m + 4096
	return words*mem.WordBytes*2 + (1 << 20)
}

// App is the graph benchmark mode on g, ready for apps.Run. sources holds
// BFS's one source or Radii's sampled sources; CC ignores it. The output
// is the label array, or the radii for Radii.
func App(mode Mode, g *graph.Graph, sources []int) apps.App[[]uint64] {
	return apps.App[[]uint64]{
		Name:         mode.String(),
		BackingBytes: backingFor(g),
		OOO: func(m *ooo.Machine) []uint64 {
			labels, radii := RunOOO(m, mode, g, sources)
			if mode == ModeRadii {
				return radii
			}
			return labels
		},
		Build: func(sys *core.System, merged bool) (core.Program, func() []uint64) {
			p := Build(sys, g, Options{Mode: mode, Merged: merged, Sources: sources})
			p.startFirstSearch()
			if mode == ModeRadii {
				return p, p.Radii
			}
			return p, p.Labels
		},
		Want:  func() []uint64 { return reference(mode, g, sources) },
		Check: func(got, want []uint64) error { return compare(labelNames[mode], got, want) },
	}
}

// reference runs mode's reference algorithm on g: the labels, or the radii
// for ModeRadii.
func reference(mode Mode, g *graph.Graph, sources []int) []uint64 {
	switch mode {
	case ModeBFS:
		return graph.BFS(g, sources[0])
	case ModeCC:
		return graph.CC(g)
	case ModeRadii:
		return graph.Radii(g, sources)
	}
	panic(fmt.Sprintf("graphpipe: unknown mode %v", mode))
}

// labelNames names what each mode's output holds per vertex.
var labelNames = [...]string{ModeBFS: "distance", ModeCC: "component", ModeRadii: "radius"}

func compare(what string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s array length %d, want %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: %s %d, want %d", v, what, got[v], want[v])
		}
	}
	return nil
}

// DefaultSource returns the deterministic BFS source: the highest-degree
// vertex (ties to the lowest id), so traversals cover the graph's core.
func DefaultSource(g *graph.Graph) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
