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

// Run executes CC on the chosen system and input.
func Run(kind apps.SystemKind, input string, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	g := graph.Generate(graph.Input(input), graph.Scale(scale), seed)
	return apps.Run(kind, scale, merged, override, graphpipe.App(graphpipe.ModeCC, g, nil))
}
