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
	g := graph.Generate(graph.Input(input), graph.Scale(scale), seed)
	src := graphpipe.DefaultSource(g)
	return apps.Run(kind, scale, merged, override, graphpipe.App(graphpipe.ModeBFS, g, []int{src}))
}
