package graphpipe

import "fifer/internal/cgra"

// SharedDFGs lists every stage DFG the package builds once and shares
// between systems.
var SharedDFGs = []*cgra.DFG{procFringeDFG, enumNeighborsDFG, fetchDistDFG, mergedSrcDFG, updateDFGs[ModeBFS], updateDFGs[ModeCC], updateDFGs[ModeRadii]}
