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
	return RunOn(kind, graph.Generate(graph.Input(input), graph.Scale(scale), seed), scale, seed, merged, override)
}

// RunOn executes CC on g, the input Run generates. It only reads g, so
// runs may share it. seed is unused.
func RunOn(kind apps.SystemKind, g *graph.Graph, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return apps.Run(kind, scale, merged, override, graphpipe.App(graphpipe.ModeCC, g, nil))
}
