package silo

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/btree"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

type pipeline struct {
	sys    *core.System
	tree   *btree.Tree
	merged bool
	place  apps.Placement
	reps   []*replica
}

type replica struct {
	id       int
	keysA    mem.Addr // this replica's lookup keys
	nKeys    int
	resultsA mem.Addr
	resIdx   int // S3's result counter register

	inFlight stage.Gate // lookups inside the traversal loop

	drmKeys *core.DRM // scan over keysA
	drmNode *core.DRM // dereference node headers

	keyQ  *apps.QueueRef
	nodeQ *apps.QueueRef // the cyclic queue: (key, nodeAddr) pairs
	pendQ *apps.QueueRef
	hdrQ  *apps.QueueRef
	leafQ *apps.QueueRef

	nodeFromQ0 stage.Out
	nodeFromS2 stage.Out

	// Merged-variant register: none needed (single stage walks levels
	// with coupled loads, one level per firing).
	mKey    uint64
	mAddr   mem.Addr
	mActive bool
}

func (p *pipeline) stages() int {
	if p.merged {
		return 1
	}
	return 4
}

func build(sys *core.System, ds Dataset, recs btree.Records, merged bool) *pipeline {
	p := &pipeline{sys: sys, merged: merged, tree: btree.Build(sys.Backing, recs)}
	p.place = apps.PlaceFor(sys.Cfg, p.stages())
	R := p.place.Replicas
	b := sys.Backing

	qp := apps.NewQueuePlan(sys)
	for r := 0; r < R; r++ {
		rep := &replica{id: r}
		// Stripe lookups across replicas.
		var mine []uint64
		for i := r; i < len(ds.Lookups); i += R {
			mine = append(mine, ds.Lookups[i])
		}
		rep.nKeys = len(mine)
		if len(mine) == 0 {
			mine = []uint64{0}
		}
		rep.keysA = b.AllocSlice(mine)
		nres := rep.nKeys
		if nres == 0 {
			nres = 1
		}
		rep.resultsA = b.AllocWords(nres)

		pe := func(s int) int { return p.place.PEOf(r, s) }
		rep.drmKeys = sys.PE(pe(0)).DRM(0)
		if merged {
			rep.keyQ = qp.Request(pe(0), fmt.Sprintf("r%d.key", r), 1, nil)
		} else {
			rep.drmNode = sys.PE(pe(1)).DRM(1)
			rep.keyQ = qp.Request(pe(0), fmt.Sprintf("r%d.key", r), 1, nil)
			rep.nodeQ = qp.Request(pe(1), fmt.Sprintf("r%d.node", r), 2, []int{pe(0), pe(2)})
			rep.pendQ = qp.Request(pe(2), fmt.Sprintf("r%d.pend", r), 1, []int{pe(1)})
			rep.hdrQ = qp.Request(pe(2), fmt.Sprintf("r%d.hdr", r), 1, []int{pe(1)})
			rep.leafQ = qp.Request(pe(3), fmt.Sprintf("r%d.leaf", r), 1, []int{pe(2)})
		}
		p.reps = append(p.reps, rep)
	}
	qp.Build()

	for r := 0; r < R; r++ {
		rep := p.reps[r]
		rep.drmKeys.Configure(core.DRMScan, rep.keyQ.Local())
		if merged {
			p.addMerged(rep)
			continue
		}
		rep.drmNode.Configure(core.DRMDereference, rep.hdrQ.Out(0))
		rep.nodeFromQ0 = rep.nodeQ.Out(0)
		rep.nodeFromS2 = rep.nodeQ.Out(1)
		m := min(rep.nodeQ.Queue().Cap(), rep.pendQ.Queue().Cap(), rep.leafQ.Queue().Cap())
		rep.inFlight.Limit = max(m/4, 2)
		p.addFull(rep)
	}
	return p
}

func (p *pipeline) addFull(rep *replica) {
	r := rep.id
	pe := func(s int) int { return p.place.PEOf(r, s) }
	root := uint64(p.tree.RootAddr)

	// Q0: query — inject keys, throttled by the in-flight limit.
	p.sys.PE(pe(0)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("silo.r%d.query", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if rep.inFlight.Full() {
				return stage.Sleep
			}
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if rep.nodeFromQ0.Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			rep.nodeFromQ0.Push(queue.Data(t.Value))
			rep.nodeFromQ0.Push(queue.Data(root))
			rep.inFlight.Acquire()
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, queryDFG),
		In:      []stage.In{rep.keyQ.In()},
		Out:     []stage.Out{rep.nodeFromQ0},
		Gate:    &rep.inFlight,
	})

	// S1: lookup — issue the header dereference.
	p.sys.PE(pe(1)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("silo.r%d.lookup", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if c.In[0].Len() < 2 {
				return stage.NoInput
			}
			if c.Out[0].Space() < 1 || c.Out[1].Space() < 2 {
				return stage.NoOutput
			}
			key, _ := c.In[0].Pop()
			addr, _ := c.In[0].Pop()
			c.Out[0].Push(queue.Data(addr.Value)) // header word address
			c.Out[1].Push(queue.Data(key.Value))
			c.Out[1].Push(queue.Data(addr.Value))
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, lookupDFG),
		In:      []stage.In{rep.nodeQ.In()},
		Out:     []stage.Out{rep.drmNode.Feed(), rep.pendQ.Out(0)},
	})

	// S2: traverse internal node (or forward leaves).
	p.sys.PE(pe(2)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("silo.r%d.traverse", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if c.In[0].Len() < 1 || c.In[1].Len() < 2 {
				return stage.NoInput
			}
			hdr, _ := c.In[0].Peek()
			numKeys, leaf := btree.DecodeHeader(hdr.Value)
			key, _ := c.In[1].Peek()
			addr, _ := c.In[1].PeekAt(1)
			if leaf {
				if c.Out[1].Space() < 2 {
					return stage.NoOutput
				}
				c.In[0].Pop()
				c.In[1].Pop()
				c.In[1].Pop()
				c.Out[1].Push(queue.Data(key.Value))
				c.Out[1].Push(queue.Data(addr.Value))
				return stage.Fired
			}
			if c.Out[0].Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			c.In[1].Pop()
			c.In[1].Pop()
			na := mem.Addr(addr.Value)
			i := 0
			for i < numKeys && key.Value >= c.Load(btree.KeyAddr(na, i)) {
				i++
			}
			child := c.Load(btree.ChildAddr(na, i))
			c.Out[0].Push(queue.Data(key.Value))
			c.Out[0].Push(queue.Data(child))
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, traverseDFG),
		In:      []stage.In{rep.hdrQ.In(), rep.pendQ.In()},
		Out:     []stage.Out{rep.nodeFromS2, rep.leafQ.Out(0)},
	})

	// S3: process leaf — locate the key, fetch the value, store the result.
	p.sys.PE(pe(3)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("silo.r%d.leaf", r),
		Fire: func(c *stage.Ctx) stage.Status {
			if c.In[0].Len() < 2 {
				return stage.NoInput
			}
			key, _ := c.In[0].Pop()
			addr, _ := c.In[0].Pop()
			na := mem.Addr(addr.Value)
			numKeys, _ := btree.DecodeHeader(c.Load(na))
			val := MissingMark
			for i := 0; i < numKeys; i++ {
				if c.Load(btree.KeyAddr(na, i)) == key.Value {
					val = c.Load(btree.ChildAddr(na, i))
					break
				}
			}
			c.Store(rep.resultsA+mem.Addr(rep.resIdx*mem.WordBytes), val)
			rep.resIdx++
			rep.inFlight.Release()
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, leafDFG),
		In:      []stage.In{rep.leafQ.In()},
	})
}

// addMerged attaches the one-stage merged variant: the whole traversal with
// coupled loads, one level per firing.
func (p *pipeline) addMerged(rep *replica) {
	root := mem.Addr(p.tree.RootAddr)
	p.sys.PE(p.place.PEOf(rep.id, 0)).AddStage(&stage.Stage{
		Name: fmt.Sprintf("silo.r%d.merged", rep.id),
		Fire: func(c *stage.Ctx) stage.Status {
			if !rep.mActive {
				t, ok := c.In[0].Peek()
				if !ok {
					return stage.NoInput
				}
				c.In[0].Pop()
				rep.mKey, rep.mAddr, rep.mActive = t.Value, root, true
				return stage.Fired
			}
			numKeys, leaf := btree.DecodeHeader(c.Load(rep.mAddr))
			if leaf {
				val := MissingMark
				for i := 0; i < numKeys; i++ {
					if c.Load(btree.KeyAddr(rep.mAddr, i)) == rep.mKey {
						val = c.Load(btree.ChildAddr(rep.mAddr, i))
						break
					}
				}
				c.Store(rep.resultsA+mem.Addr(rep.resIdx*mem.WordBytes), val)
				rep.resIdx++
				rep.mActive = false
				return stage.Fired
			}
			i := 0
			for i < numKeys && rep.mKey >= c.Load(btree.KeyAddr(rep.mAddr, i)) {
				i++
			}
			rep.mAddr = mem.Addr(c.Load(btree.ChildAddr(rep.mAddr, i)))
			return stage.Fired
		},
		Mapping: apps.PlaceDFG(p.sys, mergedDFG),
		In:      []stage.In{rep.keyQ.In()},
		StateWork: func() int {
			if rep.mActive {
				return 1
			}
			return 0
		},
	})
}
