package silo

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/btree"
	"fifer/internal/cgra"
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

	nodeFromQ0 stage.OutPort
	nodeFromS2 stage.OutPort

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

func build(sys *core.System, ds Dataset, merged bool) *pipeline {
	p := &pipeline{sys: sys, merged: merged}
	tree, err := btree.Build(sys.Backing, ds.Keys, ds.Values)
	if err != nil {
		panic(err)
	}
	p.tree = tree
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
			rep.nodeQ = qp.Request(pe(1), fmt.Sprintf("r%d.node", r), 2, nodeProducers(pe(0), pe(2), pe(1)))
			rep.pendQ = qp.Request(pe(2), fmt.Sprintf("r%d.pend", r), 1, prod(pe(1), pe(2)))
			rep.hdrQ = qp.Request(pe(2), fmt.Sprintf("r%d.hdr", r), 1, prod(pe(1), pe(2)))
			rep.leafQ = qp.Request(pe(3), fmt.Sprintf("r%d.leaf", r), 1, prod(pe(2), pe(3)))
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
		pe1 := p.place.PEOf(r, 1)
		rep.drmNode.Configure(core.DRMDereference, drmOut(rep.hdrQ, pe1))
		rep.nodeFromQ0 = rep.nodeQ.Out(0)
		rep.nodeFromS2 = rep.nodeQ.Out(1)
		m := min(rep.nodeQ.Queue().Cap(), rep.pendQ.Queue().Cap(), rep.leafQ.Queue().Cap())
		rep.inFlight.Limit = max(m/4, 2)
		p.addFull(rep)
	}
	return p
}

// nodeProducers lists the cyclic queue's two producers: the query stage and
// the traverse stage.
func nodeProducers(q0PE, s2PE, consPE int) []int {
	if q0PE == consPE && s2PE == consPE {
		return nil
	}
	return []int{q0PE, s2PE}
}

func prod(prodPE, consPE int) []int {
	if prodPE == consPE {
		return nil
	}
	return []int{prodPE}
}

func drmOut(q *apps.QueueRef, drmPE int) stage.OutPort {
	if q.Consumer == drmPE {
		return q.Local()
	}
	return q.Out(0)
}

func (p *pipeline) addFull(rep *replica) {
	r := rep.id
	pe := func(s int) int { return p.place.PEOf(r, s) }
	root := uint64(p.tree.RootAddr)

	// Q0: query — inject keys, throttled by the in-flight limit.
	p.sys.PE(pe(0)).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{
			KernelName: fmt.Sprintf("silo.r%d.query", r),
			Fn: func(c *stage.Ctx) stage.Status {
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
		},
		Mapping: mustPlace(p.sys, queryDFG),
		In:      []stage.InPort{rep.keyQ.In()},
		Out:     []stage.OutPort{rep.nodeFromQ0},
		Gate:    &rep.inFlight,
	})

	// S1: lookup — issue the header dereference.
	p.sys.PE(pe(1)).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{
			KernelName: fmt.Sprintf("silo.r%d.lookup", r),
			Fn: func(c *stage.Ctx) stage.Status {
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
		},
		Mapping: mustPlace(p.sys, lookupDFG),
		In:      []stage.InPort{rep.nodeQ.In()},
		Out:     []stage.OutPort{rep.drmNode.InPort(), rep.pendQ.Out(0)},
	})

	// S2: traverse internal node (or forward leaves).
	p.sys.PE(pe(2)).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{
			KernelName: fmt.Sprintf("silo.r%d.traverse", r),
			Fn: func(c *stage.Ctx) stage.Status {
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
		},
		Mapping: mustPlace(p.sys, traverseDFG),
		In:      []stage.InPort{rep.hdrQ.In(), rep.pendQ.In()},
		Out:     []stage.OutPort{rep.nodeFromS2, rep.leafQ.Out(0)},
	})

	// S3: process leaf — locate the key, fetch the value, store the result.
	p.sys.PE(pe(3)).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{
			KernelName: fmt.Sprintf("silo.r%d.leaf", r),
			Fn: func(c *stage.Ctx) stage.Status {
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
		},
		Mapping: mustPlace(p.sys, leafDFG),
		In:      []stage.InPort{rep.leafQ.In()},
	})
}

// addMerged attaches the one-stage merged variant: the whole traversal with
// coupled loads, one level per firing.
func (p *pipeline) addMerged(rep *replica) {
	root := mem.Addr(p.tree.RootAddr)
	p.sys.PE(p.place.PEOf(rep.id, 0)).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{
			KernelName: fmt.Sprintf("silo.r%d.merged", rep.id),
			Fn: func(c *stage.Ctx) stage.Status {
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
		},
		Mapping: mustPlace(p.sys, mergedDFG),
		In:      []stage.InPort{rep.keyQ.In()},
		StateWork: func() int {
			if rep.mActive {
				return 1
			}
			return 0
		},
	})
}

func mustPlace(sys *core.System, g *cgra.DFG) *cgra.Mapping {
	m, err := cgra.Place(g, sys.Cfg.Fabric, sys.Cfg.SIMDReplication)
	if err != nil {
		panic(err)
	}
	return m
}
