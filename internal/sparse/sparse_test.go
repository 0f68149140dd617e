package sparse

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fifer/internal/sim"
)

func small() *CSR {
	// 3x3: [1 0 2; 0 3 0; 4 0 5]
	return &CSR{
		Name: "s", NumRows: 3, NumCols: 3,
		RowOffsets: []uint64{0, 2, 3, 5},
		ColIdx:     []uint64{0, 2, 1, 0, 2},
		Values:     []float64{1, 2, 3, 4, 5},
	}
}

func TestCSRValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := small()
	bad.ColIdx[1] = 0 // duplicates column 0 in row 0 (not strictly increasing)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid CSR accepted")
	}
}

func TestTranspose(t *testing.T) {
	m := small()
	tr := Transpose(m)
	// Column 0 of m holds rows {0, 2} with values {1, 4}.
	rows, vals := tr.Col(0)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 || vals[0] != 1 || vals[1] != 4 {
		t.Fatalf("col 0 = %v %v", rows, vals)
	}
	if tr.NNZ() != m.NNZ() {
		t.Fatal("nnz changed")
	}
}

func TestMergeIntersect(t *testing.T) {
	ia, ib, steps := MergeIntersect([]uint64{1, 3, 5, 7}, []uint64{2, 3, 7, 9})
	if len(ia) != 2 || ia[0] != 1 || ia[1] != 3 || ib[0] != 1 || ib[1] != 2 {
		t.Fatalf("intersect = %v %v", ia, ib)
	}
	if steps == 0 {
		t.Fatal("no steps counted")
	}
	if ia, _, _ := MergeIntersect(nil, []uint64{1}); ia != nil {
		t.Fatal("empty intersect wrong")
	}
}

// Property: merge-intersect equals set intersection on sorted unique lists.
func TestMergeIntersectProperty(t *testing.T) {
	f := func(aBits, bBits uint32) bool {
		var a, b []uint64
		set := map[uint64]bool{}
		for i := uint64(0); i < 32; i++ {
			if aBits&(1<<i) != 0 {
				a = append(a, i)
			}
			if bBits&(1<<i) != 0 {
				b = append(b, i)
				if aBits&(1<<i) != 0 {
					set[i] = true
				}
			}
		}
		ia, ib, _ := MergeIntersect(a, b)
		if len(ia) != len(set) || len(ib) != len(ia) {
			return false
		}
		for k := range ia {
			if a[ia[k]] != b[ib[k]] || !set[a[ia[k]]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMSmall(t *testing.T) {
	a := small()
	b := Transpose(a) // B = A in CSC form, so C = A*A
	got := SpMM(a, b, []int{0, 1, 2}, []int{0, 1, 2})
	// A*A = [9 0 12; 0 9 0; 24 0 33]
	want := [][]float64{{9, 0, 12}, {0, 9, 0}, {24, 0, 33}}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// Property: sampled SpMM matches a dense-matrix oracle.
func TestSpMMDenseOracle(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		n := 12
		dense := make([][]float64, n)
		m := &CSR{Name: "d", NumRows: n, NumCols: n, RowOffsets: make([]uint64, n+1)}
		for i := range dense {
			dense[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if r.Float64() < 0.3 {
					v := 1 + r.Float64()
					dense[i][j] = v
					m.ColIdx = append(m.ColIdx, uint64(j))
					m.Values = append(m.Values, v)
				}
			}
			m.RowOffsets[i+1] = uint64(len(m.ColIdx))
		}
		rows := []int{0, 3, 7}
		cols := []int{1, 5, 11}
		got := SpMM(m, Transpose(m), rows, cols)
		for ri, i := range rows {
			for cj, j := range cols {
				want := 0.0
				for k := 0; k < n; k++ {
					want = math.FMA(dense[i][k], dense[k][j], want)
				}
				if math.Abs(got[ri][cj]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsMatchTable4(t *testing.T) {
	for _, in := range Inputs {
		m := Generate(in, 0, 1)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		_, wantNNZ, _ := PaperStats(in)
		got := m.AvgNNZPerRow()
		if got < wantNNZ*0.8 || got > wantNNZ*1.5 {
			t.Errorf("%s: nnz/row %.2f too far from paper's %.1f", in, got, wantNNZ)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(FD, 0, 3)
	b := Generate(FD, 0, 3)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] || a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("nondeterministic contents")
		}
	}
}

func TestBandedGeneratorClustersDiagonal(t *testing.T) {
	m := Generate(St, 0, 1) // structural: banded
	near, far := 0, 0
	band := m.NumRows / 4
	for r := 0; r < m.NumRows; r++ {
		cols, _ := m.Row(r)
		for _, c := range cols {
			d := int(c) - r
			if d < 0 {
				d = -d
			}
			if d <= band {
				near++
			} else {
				far++
			}
		}
	}
	if near < far*3 {
		t.Fatalf("banded matrix not diagonal-clustered: near=%d far=%d", near, far)
	}
}

// checkRowSort sorts each row with one shared rowSorter and compares it with
// slices.Sort. The rows must hold distinct keys; the sorter's bitmap must be
// all zero again after every call, since the next row relies on it.
func checkRowSort(t *testing.T, rows ...[]uint64) {
	t.Helper()
	var s rowSorter
	for _, row := range rows {
		want := slices.Clone(row)
		slices.Sort(want)
		got := slices.Clone(row)
		s.sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("sort(%v) = %v, want %v", row, got, want)
		}
		for w, word := range s.bitmap {
			if word != 0 {
				t.Fatalf("sort(%v) left bitmap word %d = %#x", row, w, word)
			}
		}
	}
}

// distinctKeys turns data into distinct keys base + v*stride, one per
// little-endian uint16 v, in data's order.
func distinctKeys(data []byte, base uint64, stride uint16) []uint64 {
	seen := map[uint64]bool{}
	var keys []uint64
	for i := 0; i+1 < len(data); i += 2 {
		k := base + uint64(binary.LittleEndian.Uint16(data[i:]))*uint64(stride)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRowSortBranches runs each of the row sort's three strategies:
// insertion sort, the bitmap over [min, max], and the slices.Sort fallback.
func TestRowSortBranches(t *testing.T) {
	r := sim.NewRand(3)
	// span draws n distinct keys from [base, base+span) in random order.
	span := func(n, span int, base uint64) []uint64 {
		seen := map[uint64]bool{}
		keys := make([]uint64, 0, n)
		for len(keys) < n {
			if k := base + uint64(r.Intn(span)); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}
	short := span(insertionMax, 1<<20, 5)
	dense := span(64, 64*bitmapWordsPerKey*64, 1<<40) // up to the widest bitmap span
	dense = append(dense, 1<<40+64*bitmapWordsPerKey*65-1)
	wide := span(insertionMax+1, 1<<30, math.MaxUint64/2)
	banded := span(150, 3500, 12_000)
	if len(short) > insertionMax || len(dense) <= insertionMax || len(wide) <= insertionMax {
		t.Fatal("cases no longer reach their branches")
	}
	checkRowSort(t, nil, []uint64{7}, short, dense, wide, banded, short, dense)
}

// FuzzRowSort checks the row sort against slices.Sort on distinct keys of
// any count and span. The seeds reach every branch: a few shuffled keys
// (insertion), many keys over a narrow span (bitmap), many keys over a wide
// one and keys that wrap past 2^64 (fallback), each row cut in two and
// sorted in turn with one sorter.
func FuzzRowSort(f *testing.F) {
	// enc encodes n uint16 keys, byte(i*mulLo) | byte(i*mulHi)<<8; odd
	// multipliers keep up to 256 of them distinct and out of order.
	enc := func(n int, mulLo, mulHi byte) []byte {
		b := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			b = append(b, byte(i)*mulLo, byte(i)*mulHi)
		}
		return b
	}
	f.Add(enc(12, 37, 0), uint64(0), uint16(1), uint8(3))
	f.Add(enc(100, 37, 0), uint64(1<<33), uint16(1), uint8(50))
	f.Add(enc(100, 37, 53), uint64(9), uint16(4000), uint8(20))
	f.Add(enc(200, 11, 0), uint64(math.MaxUint64-100), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, base uint64, stride uint16, cut uint8) {
		keys := distinctKeys(data, base, stride)
		c := min(int(cut), len(keys))
		checkRowSort(t, keys, keys[:c], keys[c:], keys)
	})
}
