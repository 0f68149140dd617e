// Package spmm is the sparse matrix-matrix multiplication benchmark
// (Sec. 7.2, Fig. 12a): inner-product (output-stationary) SpMM whose
// merge-intersect stage walks a CSR row of A and a CSC column of B in
// tandem. Each replica owns a contiguous slice of the sampled output rows;
// the paper samples a subset of rows and columns to bound simulation time
// and we do the same.
//
// Pipeline per replica (three fabric stages; the paper's "stream rows" /
// "stream cols" boxes map to the four scanning DRMs):
//
//	S0 sched:      iterate (i, j) output pairs, launch the four scans
//	               (A-row coords, A-row values, B-col coords, B-col values)
//	S1 merge:      merge-intersect the coordinate streams, forwarding
//	               matched value pairs; boundary control tokens delimit
//	               output elements (Sec. 5.5) and redirect producers when
//	               one list runs out
//	S2 accumulate: FMA the matched pairs; on each boundary, store C[i][j]
package spmm

import (
	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/sparse"
)

// Name is the benchmark's reporting name.
const Name = "SpMM"

// sampleFor returns the sampled output rows and columns for a matrix at the
// given scale: evenly strided so dense and sparse regions are both covered.
func sampleFor(m *sparse.CSR, scale int) (rows, cols []int) {
	k := []int{32, 64, 96}[scale]
	if k > m.NumRows {
		k = m.NumRows
	}
	stride := m.NumRows / k
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < m.NumRows && len(rows) < k; i += stride {
		rows = append(rows, i)
		cols = append(cols, i)
	}
	return rows, cols
}

// Run executes SpMM (C = A·A with A in CSR and CSC forms) on the chosen
// system and input.
func Run(kind apps.SystemKind, input string, scale int, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	a := sparse.Generate(sparse.Input(input), scale, seed)
	b := sparse.Transpose(a)
	rows, cols := sampleFor(a, scale)
	return apps.Run(kind, scale, merged, override, app(a, b, rows, cols))
}
