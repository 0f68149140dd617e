package spmm

import (
	"fmt"
	"math"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/sparse"
	"fifer/internal/stage"
)

type pipeline struct {
	sys    *core.System
	a      *sparse.CSR
	b      *sparse.CSC
	rows   []int // sampled output rows
	cols   []int // sampled output columns
	merged bool
	place  apps.Placement

	// Simulated-memory layout.
	aOffA, aColA, aValA mem.Addr // CSR of A
	bOffA, bRowA, bValA mem.Addr // CSC of B
	reps                []*replica
}

type replica struct {
	id     int
	rLo    int // slice of p.rows owned by this replica
	rHi    int
	outA   mem.Addr // C output block: (rHi-rLo) × len(cols) words
	outIdx int      // S2's output counter register

	// S0 iteration registers.
	ri, cj int

	drmACoord *core.DRM
	drmAVal   *core.DRM
	drmBCoord *core.DRM
	drmBVal   *core.DRM

	acQ, avQ, bcQ, bvQ *apps.QueueRef
	mulQ               *apps.QueueRef

	// S2 accumulator register.
	acc float64

	// Merged-variant registers.
	mPairActive bool
	mAi, mAEnd  uint64
	mBi, mBEnd  uint64
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func build(sys *core.System, a *sparse.CSR, b *sparse.CSC, rows, cols []int, merged bool) *pipeline {
	p := &pipeline{sys: sys, a: a, b: b, rows: rows, cols: cols, merged: merged}
	nstages := 3
	if merged {
		nstages = 1
	}
	p.place = apps.PlaceFor(sys.Cfg, nstages)
	bs := sys.Backing

	p.aOffA = bs.AllocSlice(a.RowOffsets)
	p.aColA = bs.AllocSlice(a.ColIdx)
	p.aValA = bs.AllocFloats(a.Values)
	p.bOffA = bs.AllocSlice(b.ColOffsets)
	p.bRowA = bs.AllocSlice(b.RowIdx)
	p.bValA = bs.AllocFloats(b.Values)

	R := p.place.Replicas
	qp := apps.NewQueuePlan(sys)
	for r := 0; r < R; r++ {
		rep := &replica{id: r}
		rep.rLo, rep.rHi = apps.OwnedRange(r, len(rows), R)
		nOut := (rep.rHi - rep.rLo) * len(cols)
		if nOut < 1 {
			nOut = 1
		}
		rep.outA = bs.AllocWords(nOut)
		rep.ri, rep.cj = rep.rLo, 0

		pe0 := p.place.PEOf(r, 0)
		peM := pe0 // merge/accumulate PEs
		peA := pe0
		if !merged {
			peM = p.place.PEOf(r, 1)
			peA = p.place.PEOf(r, 2)
		}
		rep.drmACoord = sys.PE(pe0).DRM(0)
		rep.drmAVal = sys.PE(pe0).DRM(1)
		rep.drmBCoord = sys.PE(pe0).DRM(2)
		rep.drmBVal = sys.PE(pe0).DRM(3)
		if !merged {
			rep.acQ = qp.Request(peM, fmt.Sprintf("r%d.ac", r), 1, []int{pe0})
			rep.avQ = qp.Request(peM, fmt.Sprintf("r%d.av", r), 1, []int{pe0})
			rep.bcQ = qp.Request(peM, fmt.Sprintf("r%d.bc", r), 1, []int{pe0})
			rep.bvQ = qp.Request(peM, fmt.Sprintf("r%d.bv", r), 1, []int{pe0})
			rep.mulQ = qp.Request(peA, fmt.Sprintf("r%d.mul", r), 2, []int{peM})
		}
		p.reps = append(p.reps, rep)
	}
	qp.Build()

	for r := 0; r < R; r++ {
		rep := p.reps[r]
		if merged {
			p.addMerged(rep)
			continue
		}
		for _, d := range []struct {
			drm *core.DRM
			q   *apps.QueueRef
		}{
			{rep.drmACoord, rep.acQ}, {rep.drmAVal, rep.avQ},
			{rep.drmBCoord, rep.bcQ}, {rep.drmBVal, rep.bvQ},
		} {
			d.drm.Configure(core.DRMScan, d.q.Out(0))
			d.drm.SetBoundary(true)
		}
		p.addFull(rep)
	}
	return p
}

// pairsLeft reports S0's remaining (i, j) work for scheduling/quiescence.
func (rep *replica) pairsLeft(p *pipeline) int {
	if rep.ri >= rep.rHi {
		return 0
	}
	return (rep.rHi-rep.ri-1)*len(p.cols) + (len(p.cols) - rep.cj)
}

func (p *pipeline) addFull(rep *replica) {
	r := rep.id

	// S0: output-pair scheduler — launches the four scans per (i, j).
	s0 := &stage.Stage{
		Name: fmt.Sprintf("spmm.r%d.sched", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if rep.pairsLeft(p) == 0 {
				return stage.Sleep
			}
			for _, d := range []*core.DRM{rep.drmACoord, rep.drmAVal, rep.drmBCoord, rep.drmBVal} {
				if d.In().Space() < 2 {
					return stage.NoOutput
				}
			}
			i := uint64(p.rows[rep.ri])
			j := uint64(p.cols[rep.cj])
			aLo := c.Load(p.aOffA + mem.Addr(i*mem.WordBytes))
			aHi := c.Load(p.aOffA + mem.Addr((i+1)*mem.WordBytes))
			bLo := c.Load(p.bOffA + mem.Addr(j*mem.WordBytes))
			bHi := c.Load(p.bOffA + mem.Addr((j+1)*mem.WordBytes))
			pushR := func(d *core.DRM, base mem.Addr, lo, hi uint64) {
				d.In().Enq(queue.Data(uint64(base) + lo*mem.WordBytes))
				d.In().Enq(queue.Data(uint64(base) + hi*mem.WordBytes))
			}
			pushR(rep.drmACoord, p.aColA, aLo, aHi)
			pushR(rep.drmAVal, p.aValA, aLo, aHi)
			pushR(rep.drmBCoord, p.bRowA, bLo, bHi)
			pushR(rep.drmBVal, p.bValA, bLo, bHi)
			rep.cj++
			if rep.cj == len(p.cols) {
				rep.cj = 0
				rep.ri++
			}
			return stage.Fired
		},
		Mapping:   apps.PlaceDFG(p.sys, schedDFG),
		In:        nil,
		Out:       []stage.Out{rep.drmACoord.Feed(), rep.drmAVal.Feed(), rep.drmBCoord.Feed(), rep.drmBVal.Feed()},
		StateWork: func() int { return rep.pairsLeft(p) },
	}
	p.sys.PE(p.place.PEOf(r, 0)).AddStage(s0)

	// S1: merge-intersect.
	s1 := &stage.Stage{
		Name:    fmt.Sprintf("spmm.r%d.merge", r),
		Fire:    func(c *stage.Ctx) stage.Status { return p.mergeFire(rep, c) },
		Mapping: apps.PlaceDFG(p.sys, mergeDFG),
		In:      []stage.In{rep.acQ.In(), rep.bcQ.In(), rep.avQ.In(), rep.bvQ.In()},
		Out:     []stage.Out{rep.mulQ.Out(0)},
	}
	p.sys.PE(p.place.PEOf(r, 1)).AddStage(s1)

	// S2: accumulate.
	p.sys.PE(p.place.PEOf(r, 2)).AddStage(p.accumulateStage(rep, 2))
}

// mergeFire advances the merge-intersection by one step: one list advance,
// one matched pair, or one boundary.
func (p *pipeline) mergeFire(rep *replica, c *stage.Ctx) stage.Status {
	at, aok := c.In[0].Peek()
	bt, bok := c.In[1].Peek()
	if !aok || !bok {
		return stage.NoInput
	}
	popA := func() {
		c.In[0].Pop()
		c.In[2].Pop()
	}
	popB := func() {
		c.In[1].Pop()
		c.In[3].Pop()
	}
	switch {
	case at.Ctrl && bt.Ctrl:
		// End of both lists: forward the element boundary downstream. The
		// value streams carry matching boundaries to stay aligned.
		if c.In[2].Len() < 1 || c.In[3].Len() < 1 {
			return stage.NoInput
		}
		if c.Out[0].Space() < 1 {
			return stage.NoOutput
		}
		popA()
		popB()
		c.Out[0].Push(queue.Ctrl(0))
		c.FiredCtrl = true
		return stage.Fired
	case at.Ctrl:
		// A exhausted: drain B (the "stop fetching unneeded data" redirect).
		if c.In[3].Len() < 1 {
			return stage.NoInput
		}
		popB()
		return stage.Fired
	case bt.Ctrl:
		if c.In[2].Len() < 1 {
			return stage.NoInput
		}
		popA()
		return stage.Fired
	case at.Value < bt.Value:
		if c.In[2].Len() < 1 {
			return stage.NoInput
		}
		popA()
		return stage.Fired
	case bt.Value < at.Value:
		if c.In[3].Len() < 1 {
			return stage.NoInput
		}
		popB()
		return stage.Fired
	default:
		// Coordinate match: forward the value pair.
		if c.In[2].Len() < 1 || c.In[3].Len() < 1 {
			return stage.NoInput
		}
		if c.Out[0].Space() < 2 {
			return stage.NoOutput
		}
		av, _ := c.In[2].Peek()
		bv, _ := c.In[3].Peek()
		popA()
		popB()
		c.Out[0].Push(queue.Data(av.Value))
		c.Out[0].Push(queue.Data(bv.Value))
		return stage.Fired
	}
}

func (p *pipeline) accumulateStage(rep *replica, stageIdx int) *stage.Stage {
	return &stage.Stage{
		Name: fmt.Sprintf("spmm.r%d.accumulate", rep.id),
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if t.Ctrl {
				c.In[0].Pop()
				c.Store(rep.outA+mem.Addr(rep.outIdx*mem.WordBytes), floatBits(rep.acc))
				rep.outIdx++
				rep.acc = 0
				c.FiredCtrl = true
				return stage.Fired
			}
			if c.In[0].Len() < 2 {
				return stage.NoInput
			}
			av, _ := c.In[0].Pop()
			bv, _ := c.In[0].Pop()
			rep.acc = math.FMA(math.Float64frombits(av.Value), math.Float64frombits(bv.Value), rep.acc)
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, accumulateDFG),
		In:      []stage.In{rep.mulQ.In()},
	}
}

// addMerged attaches the one-stage merged variant (Sec. 8.4): a single PE
// carries out the entire multiplication for its share of rows with coupled
// loads — more data parallelism (16 replicas), no decoupling.
func (p *pipeline) addMerged(rep *replica) {
	s := &stage.Stage{
		Name: fmt.Sprintf("spmm.r%d.merged", rep.id),
		Fire: func(c *stage.Ctx) stage.Status {
			if !rep.mPairActive {
				if rep.pairsLeft(p) == 0 {
					return stage.Sleep
				}
				i := uint64(p.rows[rep.ri])
				j := uint64(p.cols[rep.cj])
				rep.mAi = c.Load(p.aOffA + mem.Addr(i*mem.WordBytes))
				rep.mAEnd = c.Load(p.aOffA + mem.Addr((i+1)*mem.WordBytes))
				rep.mBi = c.Load(p.bOffA + mem.Addr(j*mem.WordBytes))
				rep.mBEnd = c.Load(p.bOffA + mem.Addr((j+1)*mem.WordBytes))
				rep.mPairActive = true
				rep.acc = 0
				return stage.Fired
			}
			if rep.mAi >= rep.mAEnd || rep.mBi >= rep.mBEnd {
				c.Store(rep.outA+mem.Addr(rep.outIdx*mem.WordBytes), floatBits(rep.acc))
				rep.outIdx++
				rep.mPairActive = false
				rep.cj++
				if rep.cj == len(p.cols) {
					rep.cj = 0
					rep.ri++
				}
				return stage.Fired
			}
			ac := c.Load(p.aColA + mem.Addr(rep.mAi*mem.WordBytes))
			bc := c.Load(p.bRowA + mem.Addr(rep.mBi*mem.WordBytes))
			switch {
			case ac < bc:
				rep.mAi++
			case bc < ac:
				rep.mBi++
			default:
				av := c.Load(p.aValA + mem.Addr(rep.mAi*mem.WordBytes))
				bv := c.Load(p.bValA + mem.Addr(rep.mBi*mem.WordBytes))
				rep.acc = math.FMA(math.Float64frombits(av), math.Float64frombits(bv), rep.acc)
				rep.mAi++
				rep.mBi++
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, mergedDFG),
		StateWork: func() int {
			n := rep.pairsLeft(p)
			if rep.mPairActive {
				n++
			}
			return n
		},
	}
	p.sys.PE(p.place.PEOf(rep.id, 0)).AddStage(s)
}
