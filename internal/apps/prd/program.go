package prd

import (
	"fmt"

	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/queue"
)

// Round control: the control core alternates the scatter and apply phases,
// ending after MaxIters iterations or when no vertex remains active —
// exactly the reference algorithm's loop structure.

func (p *pipeline) start() {
	p.phase = 1
	p.iter = 0
	b := p.sys.Backing
	for _, rep := range p.reps {
		cnt := 0
		for v := rep.lo; v < rep.hi; v++ {
			b.Store(rep.curActive+mem.Addr(cnt*mem.WordBytes), uint64(v))
			cnt++
		}
		rep.activeCnt = cnt
		if cnt > 0 {
			pushRange(rep.drmActive, rep.curActive, cnt)
		}
	}
}

func pushRange(d *core.DRM, base mem.Addr, words int) {
	in := d.In()
	if !in.Enq(queue.Data(uint64(base))) || !in.Enq(queue.Data(uint64(base)+uint64(words*mem.WordBytes))) {
		panic(fmt.Sprintf("drm %s: input overflow", d.Name()))
	}
}

// Quiesced implements core.Program.
func (p *pipeline) Quiesced(sys *core.System) bool {
	if p.phase == 1 {
		// Scatter finished; stream the apply pass over every owned vertex.
		p.phase = 2
		for _, rep := range p.reps {
			rep.vCur = rep.lo
			if rep.hi > rep.lo {
				pushRange(rep.drmApply, p.nextDeltaA+mem.Addr(rep.lo*mem.WordBytes), rep.hi-rep.lo)
			}
		}
		return true
	}
	// Apply finished: next iteration if anything stayed active.
	p.iter++
	total := 0
	for _, rep := range p.reps {
		total += rep.nextCnt
	}
	if p.iter >= p.cfg.MaxIters || total == 0 {
		return false
	}
	p.phase = 1
	for _, rep := range p.reps {
		rep.curActive, rep.nxtActive = rep.nxtActive, rep.curActive
		rep.activeCnt = rep.nextCnt
		rep.nextCnt = 0
		if rep.activeCnt > 0 {
			pushRange(rep.drmActive, rep.curActive, rep.activeCnt)
		}
	}
	return true
}

// ranks copies the Q32.32 rank array out of simulated memory.
func (p *pipeline) ranks() []uint64 {
	out := make([]uint64, p.g.NumVertices())
	for v := range out {
		out[v] = p.sys.Backing.Load(p.rankA + mem.Addr(v*mem.WordBytes))
	}
	return out
}

// --- Stage dataflow graphs -------------------------------------------------
//
// Each is built once per process; every system places the same read-only
// DFG (see cgra.DFG).

var procActiveDFG = func() *cgra.DFG {
	g := cgra.NewDFG("prd-proc-active")
	v := g.Deq(0)
	base := g.Const(0)
	one := g.Const(1)
	a0 := g.Add(cgra.OpLEA, 3, base, v)
	v1 := g.Add(cgra.OpAdd, 0, v, one)
	a1 := g.Add(cgra.OpLEA, 3, base, v1)
	g.Enq(0, a0)
	g.Enq(0, a1)
	g.Enq(1, v)
	return g
}()

var scatterDFG = func() *cgra.DFG {
	g := cgra.NewDFG("prd-scatter")
	u := g.Deq(0)
	share := g.Deq(1) // register-held between boundaries
	g.Enq(0, u)
	g.Enq(0, share)
	return g
}()

var accumulateDFG = func() *cgra.DFG {
	g := cgra.NewDFG("prd-accumulate")
	u := g.Deq(0)
	share := g.Deq(0)
	base := g.Const(0)
	a := g.Add(cgra.OpLEA, 3, base, u)
	old := g.Add(cgra.OpLoad, 0, a)
	sum := g.Add(cgra.OpAdd, 0, old, share)
	g.Add(cgra.OpStore, 0, a, sum)
	return g
}()

var applyDFG = func() *cgra.DFG {
	g := cgra.NewDFG("prd-apply")
	d := g.Deq(0)
	vc := g.Const(0) // vertex counter register
	rb := g.Const(0)
	ra := g.Add(cgra.OpLEA, 3, rb, vc)
	old := g.Add(cgra.OpLoad, 0, ra)
	rank := g.Add(cgra.OpAdd, 0, old, d)
	g.Add(cgra.OpStore, 0, ra, rank)
	deltab := g.Const(0)
	da := g.Add(cgra.OpLEA, 3, deltab, vc)
	g.Add(cgra.OpStore, 0, da, d)
	ndb := g.Const(0)
	na := g.Add(cgra.OpLEA, 3, ndb, vc)
	zero := g.Const(0)
	g.Add(cgra.OpStore, 0, na, zero)
	eps := g.Const(0)
	thr := g.Add(cgra.OpMul, 0, eps, rank)
	act := g.Add(cgra.OpCmpLT, 0, thr, d)
	ab := g.Const(0)
	aa := g.Add(cgra.OpLEA, 3, ab, act)
	g.Add(cgra.OpStore, 0, aa, vc)
	return g
}()

var mergedScatterDFG = func() *cgra.DFG {
	g := cgra.NewDFG("prd-merged-scatter")
	v := g.Deq(0)
	ob := g.Const(0)
	oa0 := g.Add(cgra.OpLEA, 3, ob, v)
	one := g.Const(1)
	v1 := g.Add(cgra.OpAdd, 0, v, one)
	oa1 := g.Add(cgra.OpLEA, 3, ob, v1)
	s := g.Add(cgra.OpLoad, 0, oa0)
	e := g.Add(cgra.OpLoad, 0, oa1)
	deg := g.Add(cgra.OpSub, 0, e, s)
	db := g.Const(0)
	da := g.Add(cgra.OpLEA, 3, db, v)
	delta := g.Add(cgra.OpLoad, 0, da)
	damp := g.Const(0)
	num := g.Add(cgra.OpMul, 0, damp, delta)
	share := g.Add(cgra.OpDiv, 0, num, deg)
	nb := g.Const(0)
	na := g.Add(cgra.OpLEA, 3, nb, s)
	u := g.Add(cgra.OpLoad, 0, na)
	g.Enq(0, u)
	g.Enq(0, share)
	return g
}()
