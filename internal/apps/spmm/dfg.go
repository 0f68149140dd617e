package spmm

import "fifer/internal/cgra"

// Stage dataflow graphs for the timing model. Each is built once per
// process; every system places the same read-only DFG (see cgra.DFG).

// schedDFG: compute the four scan ranges for an output pair (coupled loads
// of the two offsets arrays, which stay cache-resident).
var schedDFG = func() *cgra.DFG {
	g := cgra.NewDFG("spmm-sched")
	i := g.Const(0) // row cursor register
	j := g.Const(0) // col cursor register
	one := g.Const(1)
	aob := g.Const(0)
	a0 := g.Add(cgra.OpLEA, 3, aob, i)
	i1 := g.Add(cgra.OpAdd, 0, i, one)
	a1 := g.Add(cgra.OpLEA, 3, aob, i1)
	bob := g.Const(0)
	b0 := g.Add(cgra.OpLEA, 3, bob, j)
	j1 := g.Add(cgra.OpAdd, 0, j, one)
	b1 := g.Add(cgra.OpLEA, 3, bob, j1)
	aLo := g.Add(cgra.OpLoad, 0, a0)
	aHi := g.Add(cgra.OpLoad, 0, a1)
	bLo := g.Add(cgra.OpLoad, 0, b0)
	bHi := g.Add(cgra.OpLoad, 0, b1)
	acb := g.Const(0)
	g.Enq(0, g.Add(cgra.OpLEA, 3, acb, aLo))
	g.Enq(0, g.Add(cgra.OpLEA, 3, acb, aHi))
	avb := g.Const(0)
	g.Enq(1, g.Add(cgra.OpLEA, 3, avb, aLo))
	g.Enq(1, g.Add(cgra.OpLEA, 3, avb, aHi))
	bcb := g.Const(0)
	g.Enq(2, g.Add(cgra.OpLEA, 3, bcb, bLo))
	g.Enq(2, g.Add(cgra.OpLEA, 3, bcb, bHi))
	bvb := g.Const(0)
	g.Enq(3, g.Add(cgra.OpLEA, 3, bvb, bLo))
	g.Enq(3, g.Add(cgra.OpLEA, 3, bvb, bHi))
	return g
}()

// mergeDFG: one merge-intersection step — compare heads, advance the
// smaller side, forward matched value pairs (the paper's most control-
// intensive datapath).
var mergeDFG = func() *cgra.DFG {
	g := cgra.NewDFG("spmm-merge")
	ac := g.Deq(0)
	bc := g.Deq(1)
	lt := g.Add(cgra.OpCmpLT, 0, ac, bc)
	gt := g.Add(cgra.OpCmpLT, 0, bc, ac)
	eq := g.Add(cgra.OpCmpEQ, 0, ac, bc)
	av := g.Deq(2)
	bv := g.Deq(3)
	fa := g.Add(cgra.OpSelect, 0, eq, av, lt)
	fb := g.Add(cgra.OpSelect, 0, eq, bv, gt)
	g.Enq(0, fa)
	g.Enq(0, fb)
	return g
}()

// accumulateDFG: FMA the pair into the output-stationary accumulator; on a
// boundary control token, store the finished element.
var accumulateDFG = func() *cgra.DFG {
	g := cgra.NewDFG("spmm-accumulate")
	av := g.Deq(0)
	bv := g.Deq(0)
	acc := g.Const(0) // accumulator register
	sum := g.Add(cgra.OpFMA, 0, av, bv, acc)
	outb := g.Const(0)
	idx := g.Const(0)
	oa := g.Add(cgra.OpLEA, 3, outb, idx)
	g.Add(cgra.OpStore, 0, oa, sum)
	one := g.Const(1)
	g.Add(cgra.OpAdd, 0, idx, one)
	return g
}()

// mergedDFG: the entire inner product in one configuration — coupled loads
// for offsets, coordinates, and values.
var mergedDFG = func() *cgra.DFG {
	g := cgra.NewDFG("spmm-merged")
	ai := g.Const(0)
	bi := g.Const(0)
	acb := g.Const(0)
	bcb := g.Const(0)
	aca := g.Add(cgra.OpLEA, 3, acb, ai)
	bca := g.Add(cgra.OpLEA, 3, bcb, bi)
	ac := g.Add(cgra.OpLoad, 0, aca)
	bc := g.Add(cgra.OpLoad, 0, bca)
	eq := g.Add(cgra.OpCmpEQ, 0, ac, bc)
	avb := g.Const(0)
	bvb := g.Const(0)
	ava := g.Add(cgra.OpLEA, 3, avb, ai)
	bva := g.Add(cgra.OpLEA, 3, bvb, bi)
	av := g.Add(cgra.OpLoad, 0, ava)
	bv := g.Add(cgra.OpLoad, 0, bva)
	acc := g.Const(0)
	fma := g.Add(cgra.OpFMA, 0, av, bv, acc)
	sel := g.Add(cgra.OpSelect, 0, eq, fma, acc)
	one := g.Const(1)
	g.Add(cgra.OpAdd, 0, ai, one)
	g.Add(cgra.OpAdd, 0, bi, one)
	outb := g.Const(0)
	oa := g.Add(cgra.OpLEA, 3, outb, eq)
	g.Add(cgra.OpStore, 0, oa, sel)
	return g
}()
