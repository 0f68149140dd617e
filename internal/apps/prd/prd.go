// Package prd is the PageRank-Delta benchmark (Sec. 7.2): an extension of
// PageRank that only revisits vertices whose rank change exceeds a
// threshold. Each iteration is two pipeline phases — a scatter phase that
// pushes damped delta shares along out-edges, and an apply phase that folds
// accumulated deltas into ranks and builds the next active list. All
// arithmetic is Q32.32 fixed-point so the pipeline's accumulation order
// cannot change results (see internal/graph).
package prd

import (
	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// Name is the benchmark's reporting name.
const Name = "PRD"

// RunOn executes PageRank-Delta on g on the chosen system. It only reads
// g, so runs may share it, and derives its reference output through
// derive. seed is unused.
func RunOn(kind apps.SystemKind, g *graph.Graph, derive apps.Derive, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return apps.Run(kind, scale, merged, override, derive, app(g, graph.DefaultPRD(), scale))
}
