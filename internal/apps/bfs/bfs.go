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

// RunOn executes BFS on g on the chosen system. It only reads g, so runs
// may share it, and derives its reference output through derive. seed is
// unused.
func RunOn(kind apps.SystemKind, g *graph.Graph, derive apps.Derive, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	src := graphpipe.DefaultSource(g)
	return apps.Run(kind, scale, merged, override, derive, graphpipe.App(graphpipe.ModeBFS, g, []int{src}))
}
