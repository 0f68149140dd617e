package silo

import "fifer/internal/cgra"

// SharedDFGs lists every stage DFG the package builds once and shares
// between systems.
var SharedDFGs = []*cgra.DFG{queryDFG, lookupDFG, traverseDFG, leafDFG, mergedDFG}
