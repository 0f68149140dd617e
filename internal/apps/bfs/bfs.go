// Package bfs is the breadth-first-search benchmark (Sec. 2.2, Fig. 1):
// single-source shortest hop distances over the Table 3 input graphs.
package bfs

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// Name is the benchmark's reporting name.
const Name = "BFS"

// Run executes BFS on the chosen system and input.
func Run(kind apps.SystemKind, input string, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return RunOn(kind, graph.Generate(graph.Input(input), graph.Scale(scale), seed), scale, seed, merged, override)
}

// RunOn executes BFS on g, the input Run generates. It only reads g, so
// runs may share it. seed is unused.
func RunOn(kind apps.SystemKind, g *graph.Graph, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	src := graphpipe.DefaultSource(g)
	return apps.Run(kind, scale, merged, override, graphpipe.App(graphpipe.ModeBFS, g, []int{src}))
}
