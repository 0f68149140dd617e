package spmm

import (
	"fmt"
	"math"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/ooo"
	"fifer/internal/sparse"
)

func backingFor(a *sparse.CSR, rows, cols []int) int {
	words := 2*(a.NumRows+1) + 4*a.NNZ() + len(rows)*len(cols) + 8192
	return words*mem.WordBytes*2 + (1 << 20)
}

// app is SpMM over the sampled rows of a and columns of b, ready for
// apps.Run. Its output is the sampled block of C.
func app(a *sparse.CSR, b *sparse.CSC, rows, cols []int) apps.App[[][]float64] {
	return apps.App[[][]float64]{
		Name:         "spmm",
		BackingBytes: backingFor(a, rows, cols),
		OOO:          func(m *ooo.Machine) [][]float64 { return runOOO(m, a, b, rows, cols) },
		Build: func(sys *core.System, merged bool) (core.Program, func() [][]float64) {
			return apps.Halt, build(sys, a, b, rows, cols, merged).extract
		},
		Want: func() [][]float64 { return sparse.SpMM(a, b, rows, cols) },
		Check: func(got, want [][]float64) error {
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						return fmt.Errorf("C[%d][%d] = %g, want %g", i, j, got[i][j], want[i][j])
					}
				}
			}
			return nil
		},
	}
}

// extract reads the computed output blocks back out of simulated memory,
// reassembled in (sampled row, sampled col) order.
func (p *pipeline) extract() [][]float64 {
	out := make([][]float64, len(p.rows))
	for i := range out {
		out[i] = make([]float64, len(p.cols))
	}
	for _, rep := range p.reps {
		idx := 0
		for i := rep.rLo; i < rep.rHi; i++ {
			for j := range p.cols {
				out[i][j] = math.Float64frombits(p.sys.Backing.Load(rep.outA + mem.Addr(idx*mem.WordBytes)))
				idx++
			}
		}
	}
	return out
}

// runOOO executes the reference inner-product SpMM through the OOO model,
// chunking sampled rows across cores.
func runOOO(m *ooo.Machine, a *sparse.CSR, b *sparse.CSC, rows, cols []int) [][]float64 {
	bs := m.Backing
	aOffA := bs.AllocSlice(a.RowOffsets)
	aColA := bs.AllocSlice(a.ColIdx)
	aValA := bs.AllocFloats(a.Values)
	bOffA := bs.AllocSlice(b.ColOffsets)
	bRowA := bs.AllocSlice(b.RowIdx)
	bValA := bs.AllocFloats(b.Values)
	outA := bs.AllocWords(len(rows) * len(cols))

	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, len(cols))
	}
	k := len(m.Cores)
	per := (len(rows) + k - 1) / k
	for ci, c := range m.Cores {
		lo, hi := ci*per, (ci+1)*per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		for ri := lo; ri < hi; ri++ {
			i := rows[ri]
			c.Load(aOffA+mem.Addr(uint64(i)*mem.WordBytes), 0)
			c.Load(aOffA+mem.Addr(uint64(i+1)*mem.WordBytes), 0)
			for cj, j := range cols {
				c.Load(bOffA+mem.Addr(uint64(j)*mem.WordBytes), 0)
				c.Load(bOffA+mem.Addr(uint64(j+1)*mem.WordBytes), 0)
				ai, aEnd := a.RowOffsets[i], a.RowOffsets[i+1]
				bi, bEnd := b.ColOffsets[j], b.ColOffsets[j+1]
				sum := 0.0
				for ai < aEnd && bi < bEnd {
					depA := c.Load(aColA+mem.Addr(ai*mem.WordBytes), 0)
					depB := c.Load(bRowA+mem.Addr(bi*mem.WordBytes), 0)
					ac, bc := a.ColIdx[ai], b.RowIdx[bi]
					c.Op(2) // compares
					dep := depA
					if depB > dep {
						dep = depB
					}
					c.Branch(20, ac == bc, dep)
					switch {
					case ac < bc:
						ai++
					case bc < ac:
						bi++
					default:
						c.Load(aValA+mem.Addr(ai*mem.WordBytes), depA)
						c.Load(bValA+mem.Addr(bi*mem.WordBytes), depB)
						c.Op(1) // FMA
						sum = math.FMA(a.Values[ai], b.Values[bi], sum)
						ai++
						bi++
					}
				}
				out[ri][cj] = sum
				c.StoreValue(outA+mem.Addr(uint64(ri*len(cols)+cj)*mem.WordBytes), math.Float64bits(sum))
			}
		}
	}
	m.Barrier()
	return out
}
