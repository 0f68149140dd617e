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
		Check: func(got []uint64) error { return verify(mode, g, sources, got) },
	}
}

// verify checks an output (labels, or radii for ModeRadii) against the
// reference algorithms.
func verify(mode Mode, g *graph.Graph, sources []int, got []uint64) error {
	switch mode {
	case ModeBFS:
		return compare("distance", got, graph.BFS(g, sources[0]))
	case ModeCC:
		return compare("component", got, graph.CC(g))
	case ModeRadii:
		return compare("radius", got, graph.Radii(g, sources))
	}
	return fmt.Errorf("unknown mode %v", mode)
}

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
