// Package radii is the graph-radii-estimation benchmark (Sec. 7.2): BFS
// from a random sample of sources, recording each vertex's maximum observed
// distance. The sample is seeded so every system sees identical sources.
package radii

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
)

// Name is the benchmark's reporting name.
const Name = "Radii"

// Samples is the number of BFS sources (the paper samples iterations to
// bound simulation time; we do the same).
const Samples = 4

// Run executes Radii on the chosen system and input.
func Run(kind apps.SystemKind, input string, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	g := graph.Generate(graph.Input(input), graph.Scale(scale), seed)
	sources := graph.SampleSources(g, Samples, sim.NewRand(seed^0x4add1))
	return apps.Run(kind, scale, merged, override, graphpipe.App(graphpipe.ModeRadii, g, sources))
}
