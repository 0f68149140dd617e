package sparse

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fifer/internal/sim"
)

// legacyGenerate is the original map-based generator, kept as the oracle
// that pins Generate's output: any builder rewrite must reproduce it bit for
// bit, so every committed digest and golden table stays valid.
func legacyGenerate(in Input, scale int, seed uint64) *CSR {
	s, ok := matSpecs[in]
	if !ok {
		panic(fmt.Sprintf("sparse: unknown input %q", in))
	}
	n := s.size[scale]
	r := sim.NewRand(seed ^ uint64(n) ^ uint64(len(in))*977)
	m := &CSR{Name: string(in), NumRows: n, NumCols: n, RowOffsets: make([]uint64, n+1)}
	band := n / 8
	if min := int(s.nnzRow*8) + 16; band < min {
		band = min
	}
	if band > n {
		band = n
	}
	cols := make(map[uint64]struct{}, int(s.nnzRow)+4)
	for row := 0; row < n; row++ {
		target := int(s.nnzRow)
		frac := s.nnzRow - float64(target)
		if r.Float64() < frac {
			target++
		}
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
		for k := range cols {
			delete(cols, k)
		}
		for len(cols) < target {
			var c int
			if s.banded {
				c = row - band/2 + r.Intn(band)
				if c < 0 || c >= n {
					c = r.Intn(n)
				}
			} else {
				c = r.Intn(n)
			}
			cols[uint64(c)] = struct{}{}
		}
		sorted := make([]uint64, 0, len(cols))
		for c := range cols {
			sorted = append(sorted, c)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, c := range sorted {
			m.ColIdx = append(m.ColIdx, c)
			m.Values = append(m.Values, 1+r.Float64())
		}
		m.RowOffsets[row+1] = uint64(len(m.ColIdx))
	}
	return m
}

// TestGenerateMatchesLegacy pins the generator contract: for every Table 4
// input, scale and seed, Generate's output equals the original builder's.
func TestGenerateMatchesLegacy(t *testing.T) {
	scales := []int{0, 1, 2}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, in := range Inputs {
		in := in
		t.Run(string(in), func(t *testing.T) {
			t.Parallel()
			for _, scale := range scales {
				for seed := uint64(1); seed <= 20; seed++ {
					got, want := Generate(in, scale, seed), legacyGenerate(in, scale, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("scale %d seed %d: Generate differs from the legacy builder", scale, seed)
					}
				}
			}
		})
	}
}

// legacyTranspose is the original transpose, with separate per-column
// counts and cursors, kept as the oracle that pins Transpose's output.
func legacyTranspose(m *CSR) *CSC {
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

// TestTransposeMatchesLegacy pins Transpose on every Table 4 input at
// scales 0–2: its CSC form equals the original transpose's.
func TestTransposeMatchesLegacy(t *testing.T) {
	scales := []int{0, 1, 2}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, in := range Inputs {
		for _, scale := range scales {
			m := Generate(in, scale, 1)
			if got, want := Transpose(m), legacyTranspose(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scale %d: Transpose differs from the legacy transpose", in, scale)
			}
		}
	}
}

var sinkCSR *CSR

func BenchmarkSparseGenerate(b *testing.B) {
	for _, in := range Inputs {
		b.Run(string(in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCSR = Generate(in, 2, uint64(i)+1)
			}
		})
	}
}
