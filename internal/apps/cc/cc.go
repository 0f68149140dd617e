// Package cc is the connected-components benchmark (Sec. 7.2): successive
// breadth-first searches label every vertex with its component's smallest
// vertex id.
package cc

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// Name is the benchmark's reporting name.
const Name = "CC"

// RunOn executes CC on g on the chosen system. It only reads g, so runs
// may share it, and derives its reference output through derive. seed is
// unused.
func RunOn(kind apps.SystemKind, g *graph.Graph, derive apps.Derive, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return apps.Run(kind, scale, merged, override, derive, graphpipe.App(graphpipe.ModeCC, g, nil))
}
