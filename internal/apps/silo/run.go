package silo

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/btree"
	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/ooo"
	"fifer/internal/queue"
)

func backingFor(ds Dataset) int {
	nodes := (len(ds.Keys)/btree.Fanout + 2) * 2
	return nodes*btree.NodeBytes + len(ds.Lookups)*2*mem.WordBytes + (8 << 20)
}

// app is Silo over ds and its sorted records recs, ready for apps.Run. Its
// output is the value found for each lookup, in global lookup order; the
// reference answers the lookups from recs, not from the tree a system built.
func app(ds Dataset, recs btree.Records) apps.App[[]uint64] {
	return apps.App[[]uint64]{
		Name:         "silo",
		BackingBytes: backingFor(ds),
		// Sec. 7.2: Silo's queue memory is scaled down 4× to fit the LLC.
		Tweak: func(cfg *core.Config) { cfg.QueueMemBytes /= 4 },
		OOO:   func(m *ooo.Machine) []uint64 { return runOOO(m, ds, recs) },
		Build: func(sys *core.System, merged bool) (core.Program, func() []uint64) {
			p := build(sys, ds, recs, merged)
			p.startScans()
			return apps.Halt, func() []uint64 { return p.extract(len(ds.Lookups)) }
		},
		Want:  func() []uint64 { return refLookups(recs, ds.Lookups) },
		Check: compare,
	}
}

func compare(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("lookup %d: value %#x, want %#x", i, got[i], want[i])
		}
	}
	return nil
}

// startScans seeds each replica's key-scan DRM with its key range.
func (p *pipeline) startScans() {
	for _, rep := range p.reps {
		if rep.nKeys == 0 {
			continue
		}
		in := rep.drmKeys.In()
		in.Enq(queue.Data(uint64(rep.keysA)))
		in.Enq(queue.Data(uint64(rep.keysA) + uint64(rep.nKeys*mem.WordBytes)))
	}
}

// extract reassembles results from per-replica stripes into global order.
func (p *pipeline) extract(total int) []uint64 {
	out := make([]uint64, total)
	R := len(p.reps)
	for r, rep := range p.reps {
		for k := 0; k < rep.nKeys; k++ {
			out[r+k*R] = p.sys.Backing.Load(rep.resultsA + mem.Addr(k*mem.WordBytes))
		}
	}
	return out
}

// runOOO executes the lookups through the OOO model, striping across cores.
func runOOO(m *ooo.Machine, ds Dataset, recs btree.Records) []uint64 {
	tree := btree.Build(m.Backing, recs)
	keysA := m.Backing.AllocSlice(ds.Lookups)
	resA := m.Backing.AllocWords(len(ds.Lookups))
	out := make([]uint64, len(ds.Lookups))
	for i, key := range ds.Lookups {
		c := m.Cores[i%len(m.Cores)]
		c.Load(keysA+mem.Addr(uint64(i)*mem.WordBytes), 0)
		addr := tree.RootAddr
		dep := ooo.Dep(0)
		for {
			depH := c.Load(addr, dep)
			numKeys, leaf := btree.DecodeHeader(m.Backing.Load(addr))
			c.Branch(30, leaf, depH)
			if leaf {
				val := MissingMark
				for k := 0; k < numKeys; k++ {
					c.Load(btree.KeyAddr(addr, k), depH)
					c.Op(1)
					if m.Backing.Load(btree.KeyAddr(addr, k)) == key {
						depV := c.Load(btree.ChildAddr(addr, k), depH)
						val = m.Backing.Load(btree.ChildAddr(addr, k))
						_ = depV
						break
					}
				}
				out[i] = val
				c.StoreValue(resA+mem.Addr(uint64(i)*mem.WordBytes), val)
				break
			}
			k := 0
			for k < numKeys && key >= m.Backing.Load(btree.KeyAddr(addr, k)) {
				c.Load(btree.KeyAddr(addr, k), depH)
				c.Op(1)
				k++
			}
			dep = c.Load(btree.ChildAddr(addr, k), depH)
			addr = mem.Addr(m.Backing.Load(btree.ChildAddr(addr, k)))
		}
	}
	m.Barrier()
	return out
}

// --- Stage dataflow graphs -------------------------------------------------
//
// Each is built once per process; every system places the same read-only
// DFG (see cgra.DFG).

var queryDFG = func() *cgra.DFG {
	g := cgra.NewDFG("silo-query")
	key := g.Deq(0)
	root := g.Const(0)
	g.Enq(0, key)
	g.Enq(0, root)
	return g
}()

var lookupDFG = func() *cgra.DFG {
	g := cgra.NewDFG("silo-lookup")
	key := g.Deq(0)
	addr := g.Deq(0)
	g.Enq(0, addr)
	g.Enq(1, key)
	g.Enq(1, addr)
	return g
}()

var traverseDFG = func() *cgra.DFG {
	g := cgra.NewDFG("silo-traverse")
	hdr := g.Deq(0)
	key := g.Deq(1)
	addr := g.Deq(1)
	one := g.Const(1)
	nk := g.Add(cgra.OpShr, 0, hdr, one)
	leaf := g.Add(cgra.OpAnd, 0, hdr, one)
	// Separator scan: the node's keys arrive as a line-wide coupled load;
	// comparators select the child index.
	k0 := g.Add(cgra.OpLoad, 0, addr)
	k1 := g.Add(cgra.OpLoad, 0, addr)
	c0 := g.Add(cgra.OpCmpLT, 0, key, k0)
	c1 := g.Add(cgra.OpCmpLT, 0, key, k1)
	idx := g.Add(cgra.OpAdd, 0, c0, c1)
	_ = nk
	ca := g.Add(cgra.OpLEA, 3, addr, idx)
	child := g.Add(cgra.OpLoad, 0, ca)
	routed := g.Add(cgra.OpSelect, 0, leaf, addr, child)
	g.Enq(0, key)
	g.Enq(0, routed)
	return g
}()

var leafDFG = func() *cgra.DFG {
	g := cgra.NewDFG("silo-leaf")
	key := g.Deq(0)
	addr := g.Deq(0)
	hdr := g.Add(cgra.OpLoad, 0, addr)
	k0 := g.Add(cgra.OpLoad, 0, addr)
	k1 := g.Add(cgra.OpLoad, 0, addr)
	e0 := g.Add(cgra.OpCmpEQ, 0, key, k0)
	e1 := g.Add(cgra.OpCmpEQ, 0, key, k1)
	idx := g.Add(cgra.OpAdd, 0, e0, e1)
	va := g.Add(cgra.OpLEA, 3, addr, idx)
	val := g.Add(cgra.OpLoad, 0, va)
	_ = hdr
	rb := g.Const(0)
	ri := g.Const(0)
	ra := g.Add(cgra.OpLEA, 3, rb, ri)
	g.Add(cgra.OpStore, 0, ra, val)
	return g
}()

var mergedDFG = func() *cgra.DFG {
	g := cgra.NewDFG("silo-merged")
	key := g.Deq(0)
	addr := g.Const(0) // node-address register
	hdr := g.Add(cgra.OpLoad, 0, addr)
	one := g.Const(1)
	leaf := g.Add(cgra.OpAnd, 0, hdr, one)
	k0 := g.Add(cgra.OpLoad, 0, addr)
	k1 := g.Add(cgra.OpLoad, 0, addr)
	c0 := g.Add(cgra.OpCmpLT, 0, key, k0)
	c1 := g.Add(cgra.OpCmpLT, 0, key, k1)
	idx := g.Add(cgra.OpAdd, 0, c0, c1)
	ca := g.Add(cgra.OpLEA, 3, addr, idx)
	child := g.Add(cgra.OpLoad, 0, ca)
	next := g.Add(cgra.OpSelect, 0, leaf, addr, child)
	rb := g.Const(0)
	ra := g.Add(cgra.OpLEA, 3, rb, next)
	g.Add(cgra.OpStore, 0, ra, child)
	return g
}()
