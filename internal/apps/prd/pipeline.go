package prd

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// The PRD pipeline (four stages per replica, matching the structure the
// paper uses for its graph benchmarks). Scatter phase (per active vertex v):
//
//	P1 proc-active: dual-phase stage — the issue side pushes v's offsets
//	                addresses to the offsets DRM and remembers v; the
//	                compute side pairs fetched (start,end) with v, computes
//	                share = damping·delta[v]/deg (coupled delta load), and
//	                launches the neighbor scan with the share alongside
//	P2 scatter:     pair each streamed neighbor u with its range's share
//	                (ranges are delimited by boundary control tokens) and
//	                route (u, share) to u's owner replica
//	P3 accumulate:  nextDelta[u] += share (on the owner)
//
// Apply phase (per owned vertex, streamed by the apply scan DRM):
//
//	P4 apply: rank += d, delta = d, nextDelta = 0, build next active list
//
// The merged variant (Sec. 8.4) collapses P1–P2 into one stage with coupled
// loads.
type pipeline struct {
	sys    *core.System
	g      *graph.Graph
	cfg    graph.PRDConfig
	merged bool
	place  apps.Placement

	offsetsA   mem.Addr
	neighborsA mem.Addr
	rankA      mem.Addr
	deltaA     mem.Addr
	nextDeltaA mem.Addr

	reps  []*replica
	phase int // 1 = scatter, 2 = apply
	iter  int
}

type replica struct {
	id        int
	lo, hi    int // owned vertex range
	curActive mem.Addr
	nxtActive mem.Addr
	activeCnt int // entries in curActive
	nextCnt   int // entries appended to nxtActive by the apply stage

	drmActive *core.DRM
	drmOff    *core.DRM
	drmNgh    *core.DRM
	drmApply  *core.DRM

	activeQ *apps.QueueRef
	pendQ   *apps.QueueRef // v's awaiting their offsets (P1-internal)
	offQ    *apps.QueueRef
	shareQ  *apps.QueueRef
	nghQ    *apps.QueueRef
	accQ    *apps.QueueRef
	applyQ  *apps.QueueRef

	accOut []stage.Out

	// P2 registers.
	haveShare bool
	curShare  uint64
	// P4 register.
	vCur int
	// merged-variant registers.
	scanActive bool
	scanE      uint64
	scanEnd    uint64
}

func (p *pipeline) stages() int {
	if p.merged {
		return 3
	}
	return 4
}

func build(sys *core.System, g *graph.Graph, cfg graph.PRDConfig, merged bool) *pipeline {
	p := &pipeline{sys: sys, g: g, cfg: cfg, merged: merged}
	p.place = apps.PlaceFor(sys.Cfg, p.stages())
	b := sys.Backing
	n := g.NumVertices()

	p.offsetsA = b.AllocSlice(g.Offsets)
	p.neighborsA = b.AllocSlice(g.Neighbors)
	base := (graph.FixOne - cfg.Damping) / uint64(n)
	init := make([]uint64, n)
	for i := range init {
		init[i] = base
	}
	p.rankA = b.AllocSlice(init)
	p.deltaA = b.AllocSlice(init)
	p.nextDeltaA = b.AllocWords(n)

	R := p.place.Replicas
	routeIdx := 1 // P2 routes
	if merged {
		routeIdx = 0
	}
	producers := make([]int, R)
	for r := 0; r < R; r++ {
		producers[r] = p.place.PEOf(r, routeIdx)
	}

	qp := apps.NewQueuePlan(sys)
	for r := 0; r < R; r++ {
		rep := &replica{id: r}
		rep.lo, rep.hi = apps.OwnedRange(r, n, R)
		owned := rep.hi - rep.lo
		if owned < 1 {
			owned = 1
		}
		rep.curActive = b.AllocWords(owned)
		rep.nxtActive = b.AllocWords(owned)

		pe := func(s int) int { return p.place.PEOf(r, s) }
		if merged {
			rep.drmActive = sys.PE(pe(0)).DRM(0)
			rep.drmApply = sys.PE(pe(2)).DRM(3)
			rep.activeQ = qp.Request(pe(0), fmt.Sprintf("r%d.active", r), 1, nil)
			rep.accQ = qp.Request(pe(1), fmt.Sprintf("r%d.acc", r), 2, producers)
			rep.applyQ = qp.Request(pe(2), fmt.Sprintf("r%d.apply", r), 1, nil)
		} else {
			rep.drmActive = sys.PE(pe(0)).DRM(0)
			rep.drmOff = sys.PE(pe(0)).DRM(1)
			rep.drmNgh = sys.PE(pe(0)).DRM(2)
			rep.drmApply = sys.PE(pe(3)).DRM(3)
			rep.activeQ = qp.Request(pe(0), fmt.Sprintf("r%d.active", r), 1, nil)
			rep.pendQ = qp.Request(pe(0), fmt.Sprintf("r%d.pend", r), 1, nil)
			rep.offQ = qp.Request(pe(0), fmt.Sprintf("r%d.off", r), 1, nil)
			rep.shareQ = qp.Request(pe(1), fmt.Sprintf("r%d.share", r), 1, []int{pe(0)})
			rep.nghQ = qp.Request(pe(1), fmt.Sprintf("r%d.ngh", r), 2, []int{pe(0)})
			rep.accQ = qp.Request(pe(2), fmt.Sprintf("r%d.acc", r), 2, producers)
			rep.applyQ = qp.Request(pe(3), fmt.Sprintf("r%d.apply", r), 1, nil)
		}
		p.reps = append(p.reps, rep)
	}
	qp.Build()

	for r := 0; r < R; r++ {
		rep := p.reps[r]
		rep.accOut = make([]stage.Out, R)
		for d := range p.reps {
			rep.accOut[d] = p.reps[d].accQ.Out(r)
		}
		rep.drmActive.Configure(core.DRMScan, rep.activeQ.Local())
		rep.drmApply.Configure(core.DRMScan, rep.applyQ.Local())
		if merged {
			p.addMerged(rep)
		} else {
			rep.drmOff.Configure(core.DRMDereference, rep.offQ.Local())
			rep.drmNgh.Configure(core.DRMScan, rep.nghQ.Out(0))
			rep.drmNgh.SetBoundary(true)
			p.addFull(rep)
		}
	}
	return p
}

func (p *pipeline) owner(v uint64) int {
	return apps.Owner(int(v), p.g.NumVertices(), p.place.Replicas)
}

func (p *pipeline) addFull(rep *replica) {
	r := rep.id
	pe := func(s int) int { return p.place.PEOf(r, s) }

	// P1: process the active list — issue offsets fetches, then compute
	// shares and launch neighbor scans as the offsets come back.
	p.sys.PE(pe(0)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("prd.r%d.proc-active", r),
		Fire: func(c *stage.Ctx) stage.Status {
			// Compute side first: it drains the deeper queues.
			if c.In[1].Len() >= 2 && c.In[2].Len() >= 1 {
				if rep.drmNgh.In().Space() < 2 || c.Out[1].Space() < 1 {
					return stage.NoOutput
				}
				s, _ := c.In[1].Pop()
				e, _ := c.In[1].Pop()
				vt, _ := c.In[2].Pop()
				deg := e.Value - s.Value
				if deg == 0 {
					return stage.Fired
				}
				delta := c.Load(p.deltaA + mem.Addr(vt.Value*mem.WordBytes))
				share := graph.FixMul(p.cfg.Damping, delta) / deg
				rep.drmNgh.In().Enq(queue.Data(uint64(p.neighborsA) + s.Value*mem.WordBytes))
				rep.drmNgh.In().Enq(queue.Data(uint64(p.neighborsA) + e.Value*mem.WordBytes))
				c.Out[1].Push(queue.Data(share))
				return stage.Fired
			}
			// Issue side.
			if c.In[0].Len() >= 1 {
				if c.Out[0].Space() < 2 || rep.pendQ.Queue().Space() < 1 {
					return stage.NoOutput
				}
				t, _ := c.In[0].Pop()
				v := t.Value
				c.Out[0].Push(queue.Data(uint64(p.offsetsA) + v*mem.WordBytes))
				c.Out[0].Push(queue.Data(uint64(p.offsetsA) + (v+1)*mem.WordBytes))
				rep.pendQ.Local().Push(queue.Data(v))
				return stage.Fired
			}
			return stage.NoInput
		},
		Mapping: apps.PlaceDFG(p.sys, procActiveDFG),
		In:      []stage.In{rep.activeQ.In(), rep.offQ.In(), rep.pendQ.In()},
		Out:     []stage.Out{rep.drmOff.Feed(), rep.shareQ.Out(0)},
	})

	// P2: pair neighbors with shares, route to owners.
	p.sys.PE(pe(1)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("prd.r%d.scatter", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if !rep.haveShare {
				t, ok := c.In[1].Peek()
				if !ok {
					return stage.NoInput
				}
				c.In[1].Pop()
				rep.curShare = t.Value
				rep.haveShare = true
				return stage.Fired
			}
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if t.Ctrl {
				c.In[0].Pop()
				rep.haveShare = false
				c.FiredCtrl = true
				return stage.Fired
			}
			dst := rep.accOut[p.owner(t.Value)]
			if dst.Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			dst.Push(queue.Data(t.Value))
			dst.Push(queue.Data(rep.curShare))
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, scatterDFG),
		In:      []stage.In{rep.nghQ.In(), rep.shareQ.In()},
		Out:     rep.accOut,
		StateWork: func() int {
			if rep.haveShare {
				return 1
			}
			return 0
		},
	})

	// P3: accumulate deltas on the owner.
	p.sys.PE(pe(2)).AddStage(p.accumulateStage(rep))

	// P4: apply phase.
	p.sys.PE(pe(3)).AddStage(p.applyStage(rep))
}

func (p *pipeline) accumulateStage(rep *replica) *stage.Stage {
	return &stage.Stage{
		Name: fmt.Sprintf("prd.r%d.accumulate", rep.id),
		Fire: func(c *stage.Ctx) stage.Status {
			if c.In[0].Len() < 2 {
				return stage.NoInput
			}
			u, _ := c.In[0].Pop()
			sh, _ := c.In[0].Pop()
			a := p.nextDeltaA + mem.Addr(u.Value*mem.WordBytes)
			c.Store(a, c.Load(a)+sh.Value)
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, accumulateDFG),
		In:      []stage.In{rep.accQ.In()},
	}
}

func (p *pipeline) applyStage(rep *replica) *stage.Stage {
	return &stage.Stage{
		Name: fmt.Sprintf("prd.r%d.apply", rep.id),
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			c.In[0].Pop()
			v := uint64(rep.vCur)
			rep.vCur++
			d := t.Value
			if d == 0 {
				return stage.Fired
			}
			ra := p.rankA + mem.Addr(v*mem.WordBytes)
			rank := c.Load(ra) + d
			c.Store(ra, rank)
			c.Store(p.deltaA+mem.Addr(v*mem.WordBytes), d)
			c.Store(p.nextDeltaA+mem.Addr(v*mem.WordBytes), 0)
			if d > graph.FixMul(p.cfg.Epsilon, rank) {
				c.Store(rep.nxtActive+mem.Addr(rep.nextCnt*mem.WordBytes), v)
				rep.nextCnt++
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, applyDFG),
		In:      []stage.In{rep.applyQ.In()},
	}
}

// addMerged attaches the three-stage merged variant: P1–P2 collapse into
// one source-centric stage with coupled offsets/delta/neighbors loads.
func (p *pipeline) addMerged(rep *replica) {
	r := rep.id
	p.sys.PE(p.place.PEOf(r, 0)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("prd.r%d.merged-scatter", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if rep.scanActive {
				u := c.Load(p.neighborsA + mem.Addr(rep.scanE*mem.WordBytes))
				dst := rep.accOut[p.owner(u)]
				if dst.Space() < 2 {
					return stage.NoOutput
				}
				dst.Push(queue.Data(u))
				dst.Push(queue.Data(rep.curShare))
				rep.scanE++
				if rep.scanE >= rep.scanEnd {
					rep.scanActive = false
				}
				return stage.Fired
			}
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			c.In[0].Pop()
			v := t.Value
			start := c.Load(p.offsetsA + mem.Addr(v*mem.WordBytes))
			end := c.Load(p.offsetsA + mem.Addr((v+1)*mem.WordBytes))
			if end > start {
				delta := c.Load(p.deltaA + mem.Addr(v*mem.WordBytes))
				rep.curShare = graph.FixMul(p.cfg.Damping, delta) / (end - start)
				rep.scanActive, rep.scanE, rep.scanEnd = true, start, end
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, mergedScatterDFG),
		In:      []stage.In{rep.activeQ.In()},
		Out:     rep.accOut,
		StateWork: func() int {
			if rep.scanActive {
				return int(rep.scanEnd - rep.scanE)
			}
			return 0
		},
	})
	p.sys.PE(p.place.PEOf(r, 1)).AddStage(p.accumulateStage(rep))
	p.sys.PE(p.place.PEOf(r, 2)).AddStage(p.applyStage(rep))
}
