package graphpipe

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/cgra"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// addFullStages attaches the fully decoupled four-stage pipeline (Fig. 2a)
// for replica rep.
func (p *Pipeline) addFullStages(rep *replica) {
	r := rep.id

	// --- S1: process current fringe --------------------------------------
	// Dequeues vertex ids produced by the fringe-scanning DRM and issues
	// the two offsets addresses to the offsets DRM.
	s1 := &stage.Stage{
		Name: fmt.Sprintf("%s.r%d.proc-fringe", p.Opts.Mode, r),
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if c.Out[0].Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			v := t.Value
			c.Out[0].Push(queue.Data(uint64(p.offsetsA) + v*mem.WordBytes))
			c.Out[0].Push(queue.Data(uint64(p.offsetsA) + (v+1)*mem.WordBytes))
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.Sys, procFringeDFG),
		In:      []stage.In{rep.fringeQ.In()},
		Out:     []stage.Out{rep.drmOff.Feed()},
	}
	p.Sys.PE(p.place.PEOf(r, 0)).AddStage(s1)

	// --- S2: enumerate neighbors ------------------------------------------
	// Consumes (start, end) pairs from the offsets DRM and streams one
	// neighbor-array address per datapath firing to the neighbors DRM
	// (Fig. 6 / Fig. 9 right).
	s2 := &stage.Stage{
		Name: fmt.Sprintf("%s.r%d.enum-neighbors", p.Opts.Mode, r),
		Fire: func(c *stage.Ctx) stage.Status {
			if !rep.scanActive {
				if c.In[0].Len() < 2 {
					return stage.NoInput
				}
				s, _ := c.In[0].Pop()
				e, _ := c.In[0].Pop()
				if s.Value < e.Value {
					rep.scanActive, rep.scanE, rep.scanEnd = true, s.Value, e.Value
				}
				return stage.Fired
			}
			if c.Out[0].Space() < 1 {
				return stage.NoOutput
			}
			c.Out[0].Push(queue.Data(uint64(p.neighborsA) + rep.scanE*mem.WordBytes))
			rep.scanE++
			if rep.scanE >= rep.scanEnd {
				rep.scanActive = false
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.Sys, enumNeighborsDFG),
		In:      []stage.In{rep.offQ.In()},
		Out:     []stage.Out{rep.drmNgh.Feed()},
		StateWork: func() int {
			if rep.scanActive {
				return int(rep.scanEnd - rep.scanE)
			}
			return 0
		},
	}
	p.Sys.PE(p.place.PEOf(r, 1)).AddStage(s2)

	// --- S3: fetch distances & route ---------------------------------------
	// Issue side: for each neighbor id, send the label address to the label
	// DRM and remember the id. Route side: pair fetched labels with their
	// ids; unvisited neighbors are routed to the owner replica's update
	// queue, visited ones are filtered out (Fig. 10's cross-PE hop).
	s3 := &stage.Stage{
		Name: fmt.Sprintf("%s.r%d.fetch-dist", p.Opts.Mode, r),
		Fire: func(c *stage.Ctx) stage.Status {
			// Route phase has priority: it drains the deepest queues.
			if c.In[1].Len() > 0 && c.In[2].Len() > 0 {
				ngh, _ := c.In[1].Peek()
				dist, _ := c.In[2].Peek()
				if dist.Value != graph.Unset {
					c.In[1].Pop()
					c.In[2].Pop()
					return stage.Fired // already visited: filtered
				}
				owner := p.ownerOf(ngh.Value)
				if rep.updOut[owner].Push(queue.Data(ngh.Value)) {
					c.In[1].Pop()
					c.In[2].Pop()
					return stage.Fired
				}
				// Out of credits to that destination; fall through and
				// try the issue side so the PE stays busy.
			}
			if c.In[0].Len() > 0 {
				if c.Out[0].Space() < 1 || rep.pairQ.Queue().Space() < 1 {
					return stage.NoOutput
				}
				t, _ := c.In[0].Pop()
				c.Out[0].Push(queue.Data(uint64(p.labelAddr(t.Value))))
				rep.pairQ.Local().Push(queue.Data(t.Value))
				return stage.Fired
			}
			if c.In[1].Len() > 0 && c.In[2].Len() > 0 {
				return stage.NoOutput // routing blocked on credits
			}
			return stage.NoInput
		},
		Mapping: apps.PlaceDFG(p.Sys, fetchDistDFG),
		In:      []stage.In{rep.nghQ.In(), rep.pairQ.In(), rep.distQ.In()},
		Out:     []stage.Out{rep.drmDist.Feed()},
	}
	p.Sys.PE(p.place.PEOf(r, 2)).AddStage(s3)

	// --- S4: update data & next fringe -------------------------------------
	p.addUpdateStage(rep, 3)
}

// addUpdateStage attaches the final stage shared by both variants: check
// the label (authoritatively, on the owner), write it, append to the next
// fringe, and for Radii also fold the distance into radii[v].
func (p *Pipeline) addUpdateStage(rep *replica, stageIdx int) {
	r := rep.id
	s4 := &stage.Stage{
		Name: fmt.Sprintf("%s.r%d.update", p.Opts.Mode, r),
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			c.In[0].Pop()
			ngh := t.Value
			if cur := c.Load(p.labelAddr(ngh)); cur == graph.Unset {
				c.Store(p.labelAddr(ngh), p.curLabel)
				if rep.nextCnt >= rep.fringeCap {
					panic(fmt.Sprintf("replica %d: next fringe overflow", r))
				}
				c.Store(rep.nextFringe+mem.Addr(rep.nextCnt*mem.WordBytes), ngh)
				rep.nextCnt++
				if p.Opts.Mode == ModeRadii {
					ra := p.radiiA + mem.Addr(ngh*mem.WordBytes)
					if old := c.Load(ra); p.curLabel > old {
						c.Store(ra, p.curLabel)
					}
				}
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.Sys, updateDFGs[p.Opts.Mode]),
		In:      []stage.In{rep.updQ.In()},
		Out:     nil,
	}
	p.Sys.PE(p.place.PEOf(r, stageIdx)).AddStage(s4)
}

// addMergedStages attaches the merged two-stage variant (Sec. 8.4): the
// source-centric stages (fringe, offsets, neighbors) collapse into one
// stage whose offsets/neighbors loads are coupled — reintroducing stalls —
// while the pipeline still decouples across the most expensive indirection
// (the label fetch, folded into the owner-side update stage).
func (p *Pipeline) addMergedStages(rep *replica) {
	r := rep.id
	sa := &stage.Stage{
		Name: fmt.Sprintf("%s.r%d.merged-src", p.Opts.Mode, r),
		Fire: func(c *stage.Ctx) stage.Status {
			if rep.scanActive {
				ngh := c.Load(p.neighborsA + mem.Addr(rep.scanE*mem.WordBytes))
				owner := p.ownerOf(ngh)
				if !rep.updOut[owner].Push(queue.Data(ngh)) {
					c.ExtraStall = 0 // load retries next attempt
					return stage.NoOutput
				}
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
			if start < end {
				rep.scanActive, rep.scanE, rep.scanEnd = true, start, end
			}
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.Sys, mergedSrcDFG),
		In:      []stage.In{rep.fringeQ.In()},
		Out:     rep.updOut,
		StateWork: func() int {
			if rep.scanActive {
				return int(rep.scanEnd - rep.scanE)
			}
			return 0
		},
	}
	p.Sys.PE(p.place.PEOf(r, 0)).AddStage(sa)
	p.addUpdateStage(rep, 1)
}

// ownerOf returns the replica owning vertex v. The traversal benchmarks
// shard by the low bits of the vertex id ("examining bits of the neighbor
// id", Sec. 5.6): BFS wavefronts are spatially clustered, so interleaved
// ownership spreads each level's work across all replicas where contiguous
// blocks would leave most PEs idle.
func (p *Pipeline) ownerOf(v uint64) int {
	return int(v) % p.place.Replicas
}

// --- Stage dataflow graphs ------------------------------------------------
//
// These DFGs drive the timing model: pipeline depth sets drain time, op
// count sets SIMD replication and fabric energy, and they are what the
// placer maps onto the 16×5 grid. Each is built once per process; every
// system places the same read-only DFG (see cgra.DFG).

var procFringeDFG = func() *cgra.DFG {
	g := cgra.NewDFG("proc-fringe")
	v := g.Deq(0)
	base := g.Const(0) // offsets base (runtime constant register)
	one := g.Const(1)
	a0 := g.Add(cgra.OpLEA, 3, base, v) // &offsets[v]
	v1 := g.Add(cgra.OpAdd, 0, v, one)
	a1 := g.Add(cgra.OpLEA, 3, base, v1) // &offsets[v+1]
	g.Enq(0, a0)
	g.Enq(0, a1)
	return g
}()

var enumNeighborsDFG = func() *cgra.DFG {
	g := cgra.NewDFG("enum-neighbors")
	s := g.Deq(0) // start (register-held when scanning)
	e := g.Deq(0) // end
	base := g.Const(0)
	one := g.Const(1)
	addr := g.Add(cgra.OpLEA, 3, base, s) // &neighbors[e]
	next := g.Add(cgra.OpAdd, 0, s, one)
	g.Add(cgra.OpCmpLT, 0, next, e) // loop-continue predicate
	g.Enq(0, addr)
	return g
}()

var fetchDistDFG = func() *cgra.DFG {
	g := cgra.NewDFG("fetch-dist")
	ngh := g.Deq(0)
	base := g.Const(0)
	addr := g.Add(cgra.OpLEA, 3, base, ngh) // &labels[ngh]
	g.Enq(0, addr)                          // to label DRM
	g.Enq(1, ngh)                           // pending id
	dist := g.Deq(2)
	unset := g.Const(graph.Unset)
	isUnset := g.Add(cgra.OpCmpEQ, 0, dist, unset)
	pend := g.Deq(1)
	routed := g.Add(cgra.OpSelect, 0, isUnset, pend, unset)
	g.Enq(2, routed) // to owner's update queue
	return g
}()

// updateDFGs holds each Mode's update-stage DFG.
var updateDFGs = [...]*cgra.DFG{
	ModeBFS:   updateDFG(ModeBFS),
	ModeCC:    updateDFG(ModeCC),
	ModeRadii: updateDFG(ModeRadii),
}

func updateDFG(m Mode) *cgra.DFG {
	g := cgra.NewDFG("update")
	ngh := g.Deq(0)
	base := g.Const(0)
	la := g.Add(cgra.OpLEA, 3, base, ngh)
	cur := g.Add(cgra.OpLoad, 0, la)
	unset := g.Const(graph.Unset)
	isUnset := g.Add(cgra.OpCmpEQ, 0, cur, unset)
	lbl := g.Const(0) // current label register
	val := g.Add(cgra.OpSelect, 0, isUnset, lbl, cur)
	g.Add(cgra.OpStore, 0, la, val)
	fb := g.Const(0) // next-fringe base + count register
	fa := g.Add(cgra.OpLEA, 3, fb, isUnset)
	g.Add(cgra.OpStore, 0, fa, ngh)
	cnt := g.Const(0)
	g.Add(cgra.OpAdd, 0, cnt, isUnset)
	if m == ModeRadii {
		rb := g.Const(0)
		ra := g.Add(cgra.OpLEA, 3, rb, ngh)
		old := g.Add(cgra.OpLoad, 0, ra)
		gt := g.Add(cgra.OpCmpLT, 0, old, lbl)
		mx := g.Add(cgra.OpSelect, 0, gt, lbl, old)
		g.Add(cgra.OpStore, 0, ra, mx)
	}
	return g
}

var mergedSrcDFG = func() *cgra.DFG {
	g := cgra.NewDFG("merged-src")
	v := g.Deq(0)
	ob := g.Const(0)
	oa0 := g.Add(cgra.OpLEA, 3, ob, v)
	one := g.Const(1)
	v1 := g.Add(cgra.OpAdd, 0, v, one)
	oa1 := g.Add(cgra.OpLEA, 3, ob, v1)
	start := g.Add(cgra.OpLoad, 0, oa0) // coupled: stalls on miss
	end := g.Add(cgra.OpLoad, 0, oa1)
	nb := g.Const(0)
	na := g.Add(cgra.OpLEA, 3, nb, start)
	ngh := g.Add(cgra.OpLoad, 0, na) // coupled neighbor load
	g.Add(cgra.OpCmpLT, 0, start, end)
	g.Enq(0, ngh)
	return g
}()
