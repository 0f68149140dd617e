// Package sparse provides the sparse linear-algebra substrate for the SpMM
// benchmark: CSR and CSC compressed matrices, synthetic generators shaped
// after the paper's Table 4 inputs, and the reference inner-product
// (output-stationary) SpMM with its merge-intersect kernel (Sec. 7.2).
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fifer/internal/sim"
)

// CSR is a compressed-sparse-row matrix of float64 values.
type CSR struct {
	Name       string
	NumRows    int
	NumCols    int
	RowOffsets []uint64 // length NumRows+1
	ColIdx     []uint64 // column index of each stored non-zero
	Values     []float64
}

// NNZ returns the stored non-zero count.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// AvgNNZPerRow returns the mean stored non-zeros per row.
func (m *CSR) AvgNNZPerRow() float64 {
	if m.NumRows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.NumRows)
}

// Row returns the column indices and values of row r.
func (m *CSR) Row(r int) ([]uint64, []float64) {
	lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
	return m.ColIdx[lo:hi], m.Values[lo:hi]
}

// Validate checks CSR invariants (monotone offsets, sorted in-range column
// indices per row).
func (m *CSR) Validate() error {
	if len(m.RowOffsets) != m.NumRows+1 {
		return fmt.Errorf("matrix %s: %d row offsets, want %d", m.Name, len(m.RowOffsets), m.NumRows+1)
	}
	if m.RowOffsets[0] != 0 || m.RowOffsets[m.NumRows] != uint64(len(m.ColIdx)) {
		return fmt.Errorf("matrix %s: bad boundary offsets", m.Name)
	}
	if len(m.Values) != len(m.ColIdx) {
		return fmt.Errorf("matrix %s: %d values, %d col indices", m.Name, len(m.Values), len(m.ColIdx))
	}
	for r := 0; r < m.NumRows; r++ {
		if m.RowOffsets[r+1] < m.RowOffsets[r] {
			return fmt.Errorf("matrix %s: offsets decrease at row %d", m.Name, r)
		}
		cols, _ := m.Row(r)
		for i, c := range cols {
			if c >= uint64(m.NumCols) {
				return fmt.Errorf("matrix %s: row %d col %d out of range", m.Name, r, c)
			}
			if i > 0 && cols[i-1] >= c {
				return fmt.Errorf("matrix %s: row %d columns not strictly increasing", m.Name, r)
			}
		}
	}
	return nil
}

// CSC is a compressed-sparse-column matrix (the layout of matrix B in the
// paper's inner-product SpMM).
type CSC struct {
	Name       string
	NumRows    int
	NumCols    int
	ColOffsets []uint64
	RowIdx     []uint64
	Values     []float64
}

// NNZ returns the stored non-zero count.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// Col returns the row indices and values of column c.
func (m *CSC) Col(c int) ([]uint64, []float64) {
	lo, hi := m.ColOffsets[c], m.ColOffsets[c+1]
	return m.RowIdx[lo:hi], m.Values[lo:hi]
}

// Transpose converts a CSR matrix into the CSC layout of the same matrix.
func Transpose(m *CSR) *CSC {
	t := &CSC{
		Name: m.Name + "^csc", NumRows: m.NumRows, NumCols: m.NumCols,
		ColOffsets: make([]uint64, m.NumCols+1),
		RowIdx:     make([]uint64, m.NNZ()),
		Values:     make([]float64, m.NNZ()),
	}
	counts := make([]uint64, m.NumCols)
	for _, c := range m.ColIdx {
		counts[c]++
	}
	for c := 0; c < m.NumCols; c++ {
		t.ColOffsets[c+1] = t.ColOffsets[c] + counts[c]
	}
	next := append([]uint64(nil), t.ColOffsets[:m.NumCols]...)
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			t.RowIdx[next[c]] = uint64(r)
			t.Values[next[c]] = vals[i]
			next[c]++
		}
	}
	return t
}

// MergeIntersect walks two strictly-increasing coordinate lists in tandem
// and returns the indices (into each list) at which coordinates coincide —
// the paper's merge-intersect kernel. steps receives the number of merge
// steps performed (one list-advance per step), the quantity that dominates
// SpMM's runtime.
func MergeIntersect(a, b []uint64) (ia, ib []int, steps int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] == b[j]:
			ia = append(ia, i)
			ib = append(ib, j)
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return ia, ib, steps
}

// SpMM computes C = A·B one output element at a time using merge-intersect
// inner products (output-stationary). Only the rows in rowSample and
// columns in colSample are computed, mirroring the paper's sampling
// (Sec. 7.2). The result is a dense rowSample×colSample matrix.
func SpMM(a *CSR, b *CSC, rowSample, colSample []int) [][]float64 {
	out := make([][]float64, len(rowSample))
	for i, r := range rowSample {
		out[i] = make([]float64, len(colSample))
		acols, avals := a.Row(r)
		for j, c := range colSample {
			brows, bvals := b.Col(c)
			ia, ib, _ := MergeIntersect(acols, brows)
			sum := 0.0
			for k := range ia {
				sum = math.FMA(avals[ia[k]], bvals[ib[k]], sum)
			}
			out[i][j] = sum
		}
	}
	return out
}

// Input names the six Table 4 matrices.
type Input string

const (
	FS Input = "FS" // p2p-Gnutella31: file sharing, 2.4 nnz/row
	Gr Input = "Gr" // amazon0312: graph as matrix, 8.0
	GE Input = "GE" // cage12: gel electrophoresis, 15.6
	EM Input = "EM" // 2cubes_sphere: electromagnetics, 16.2
	FD Input = "FD" // rma10: fluid dynamics, 49.7
	St Input = "St" // pwtk: structural, 52.9
)

// Inputs lists the Table 4 matrices in the paper's order.
var Inputs = []Input{FS, Gr, GE, EM, FD, St}

type matSpec struct {
	size        [3]int // per graph.Scale-like scale (tiny, small, medium)
	nnzRow      float64
	banded      bool // FEM-like matrices cluster non-zeros near the diagonal
	paperN      int
	paperNNZRow float64
	domain      string
}

var matSpecs = map[Input]matSpec{
	FS: {size: [3]int{1_500, 8_000, 32_000}, nnzRow: 2.4, banded: false,
		paperN: 62_586, paperNNZRow: 2.4, domain: "File sharing"},
	Gr: {size: [3]int{2_000, 12_000, 48_000}, nnzRow: 8.0, banded: false,
		paperN: 400_727, paperNNZRow: 8.0, domain: "Graph as matrix"},
	GE: {size: [3]int{1_800, 10_000, 40_000}, nnzRow: 15.6, banded: true,
		paperN: 130_228, paperNNZRow: 15.6, domain: "Gel electrophoresis"},
	EM: {size: [3]int{1_500, 9_000, 36_000}, nnzRow: 16.2, banded: true,
		paperN: 101_492, paperNNZRow: 16.2, domain: "Electromagnetics"},
	FD: {size: [3]int{1_000, 5_000, 20_000}, nnzRow: 49.7, banded: true,
		paperN: 46_835, paperNNZRow: 49.7, domain: "Fluid dynamics"},
	St: {size: [3]int{1_200, 7_000, 28_000}, nnzRow: 52.9, banded: true,
		paperN: 217_918, paperNNZRow: 52.9, domain: "Structural"},
}

// PaperStats returns the real matrix's published size and density (Table 4).
func PaperStats(in Input) (n int, nnzPerRow float64, domain string) {
	s := matSpecs[in]
	return s.paperN, s.paperNNZRow, s.domain
}

// Generate produces the synthetic stand-in for the named Table 4 matrix at
// the given scale index (0=tiny, 1=small, 2=medium), deterministically from
// seed. FEM-like matrices are banded (non-zeros near the diagonal), others
// are uniform, which preserves the intersection density that drives
// merge-intersect behavior.
func Generate(in Input, scale int, seed uint64) *CSR {
	s, ok := matSpecs[in]
	if !ok {
		panic(fmt.Sprintf("sparse: unknown input %q", in))
	}
	n := s.size[scale]
	r := sim.NewRand(seed ^ uint64(n) ^ uint64(len(in))*977)
	m := &CSR{Name: string(in), NumRows: n, NumCols: n, RowOffsets: make([]uint64, n+1)}
	band := n / 8
	// The band must comfortably hold the densest rows (3x the mean), or the
	// rejection loop below could never gather enough distinct columns.
	if min := int(s.nnzRow*8) + 16; band < min {
		band = min
	}
	if band > n {
		band = n
	}
	// Presize for the expected nnz: nnzRow per row, with 5% of rows tripled,
	// plus slack so the arrays are not regrown near the end.
	expected := int(float64(n) * s.nnzRow * 1.15)
	m.ColIdx = make([]uint64, 0, expected)
	m.Values = make([]float64, 0, expected)
	seen := make([]int32, n) // seen[c] == row+1 once this row holds column c
	var sorter rowSorter
	for row := 0; row < n; row++ {
		// Per-row non-zero count: mean nnzRow with geometric-ish spread.
		target := int(s.nnzRow)
		frac := s.nnzRow - float64(target)
		if r.Float64() < frac {
			target++
		}
		// Add skew: occasionally dense rows (matches real matrices' spread).
		if r.Float64() < 0.05 {
			target *= 3
		}
		if target < 1 {
			target = 1
		}
		if target > band/2 {
			target = band / 2
		}
		if target > n {
			target = n
		}
		start, stamp := len(m.ColIdx), int32(row+1)
		for len(m.ColIdx)-start < target {
			var c int
			if s.banded {
				c = row - band/2 + r.Intn(band)
				if c < 0 || c >= n {
					c = r.Intn(n)
				}
			} else {
				c = r.Intn(n)
			}
			if seen[c] != stamp {
				seen[c] = stamp
				m.ColIdx = append(m.ColIdx, uint64(c))
			}
		}
		sorter.sort(m.ColIdx[start:])
		for range m.ColIdx[start:] {
			m.Values = append(m.Values, 1+r.Float64())
		}
		m.RowOffsets[row+1] = uint64(len(m.ColIdx))
	}
	return m
}

// Row-sort strategy thresholds. Rows of up to insertionMax columns are
// insertion-sorted; longer rows whose [min, max] span needs at most
// bitmapWordsPerKey bitmap words per column go through the bitmap; the rest
// (dense rows of uniform matrices, and banded rows near the matrix edge,
// whose out-of-band draws are uniform over all n columns) fall back to
// slices.Sort.
const (
	insertionMax      = 16
	bitmapWordsPerKey = 4
)

// rowSorter sorts one row's column indices at a time. The indices of a row
// are distinct, and a banded row spans about n/8 columns, so a bitmap over
// [min, max] sorts it in one pass; the bitmap is reused across rows and is
// all zero between calls.
type rowSorter struct {
	bitmap []uint64
}

// sort sorts cols, which must hold distinct values, into increasing order.
func (s *rowSorter) sort(cols []uint64) {
	if len(cols) <= insertionMax {
		for i := 1; i < len(cols); i++ {
			c, j := cols[i], i
			for ; j > 0 && cols[j-1] > c; j-- {
				cols[j] = cols[j-1]
			}
			cols[j] = c
		}
		return
	}
	lo, hi := cols[0], cols[0]
	for _, c := range cols[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	words := (hi-lo)/64 + 1
	if words > uint64(bitmapWordsPerKey*len(cols)) {
		slices.Sort(cols)
		return
	}
	if uint64(len(s.bitmap)) < words {
		// Room for any span this row length accepts, so the bitmap
		// regrows only for a longer row.
		s.bitmap = make([]uint64, bitmapWordsPerKey*len(cols))
	}
	bm := s.bitmap[:words]
	for _, c := range cols {
		d := c - lo
		bm[d/64] |= 1 << (d % 64)
	}
	k := 0
	for w, word := range bm {
		base := lo + uint64(w)*64
		for word != 0 {
			cols[k] = base + uint64(bits.TrailingZeros64(word))
			k++
			word &= word - 1
		}
		bm[w] = 0
	}
}
