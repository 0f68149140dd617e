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

// RunOn executes Radii on g on the chosen system; seed picks the sources.
// It only reads g, so runs may share it, and derives its reference output
// through derive.
func RunOn(kind apps.SystemKind, g *graph.Graph, derive apps.Derive, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	sources := graph.SampleSources(g, Samples, sim.NewRand(seed^0x4add1))
	return apps.Run(kind, scale, merged, override, derive, graphpipe.App(graphpipe.ModeRadii, g, sources))
}
