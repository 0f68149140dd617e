package graphpipe

import (
	"fifer/internal/apps"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/ooo"
)

// OOO baselines for the graph benchmarks: the reference algorithms executed
// instruction-by-instruction through the interval core model. The serial
// variant runs everything on core 0; the multicore variant splits each BFS
// level's fringe across cores with a barrier per level (the structure of
// level-synchronous parallel BFS, our stand-in for PBFS/Ligra — see
// DESIGN.md §5).

// oooGraph is the graph laid out in an OOO machine's memory.
type oooGraph struct {
	g          *graph.Graph
	offsetsA   mem.Addr
	neighborsA mem.Addr
	labelA     mem.Addr
	radiiA     mem.Addr
	fringeA    []mem.Addr // per-core next-fringe buffers

	// The host's current and next frontiers, reused by every level of
	// every search.
	cur, next []uint64
}

func layoutOOO(m *ooo.Machine, g *graph.Graph, radii bool) *oooGraph {
	og := &oooGraph{g: g}
	b := m.Backing
	og.offsetsA = b.AllocSlice(g.Offsets)
	og.neighborsA = b.AllocSlice(g.Neighbors)
	n := g.NumVertices()
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = graph.Unset
	}
	og.labelA = b.AllocSlice(labels)
	if radii {
		og.radiiA = b.AllocWords(n)
	}
	for range m.Cores {
		og.fringeA = append(og.fringeA, b.AllocWords(n))
	}
	return og
}

func (og *oooGraph) labelAddr(v uint64) mem.Addr { return og.labelA + mem.Addr(v*mem.WordBytes) }

// bfsLevel processes one fringe level on the given core, labeling each
// vertex it discovers and storing it into the core's fringe buffer. It
// returns next with the discovered vertices appended.
func (og *oooGraph) bfsLevel(c *ooo.Core, coreIdx int, fringe []uint64, label uint64, radii bool, next []uint64) []uint64 {
	fa, base := og.fringeA[coreIdx], len(next)
	for _, v := range fringe {
		// Offsets loads: addresses known, independent of each other.
		depS := c.Load(og.offsetsA+mem.Addr(v*mem.WordBytes), 0)
		c.Load(og.offsetsA+mem.Addr((v+1)*mem.WordBytes), 0)
		c.Op(2) // loop bookkeeping
		start, end := og.g.Offsets[v], og.g.Offsets[v+1]
		for e := start; e < end; e++ {
			depN := c.Load(og.neighborsA+mem.Addr(e*mem.WordBytes), depS)
			ngh := og.g.Neighbors[e]
			depD := c.Load(og.labelAddr(ngh), depN)
			unset := c.Backing().Load(og.labelAddr(ngh)) == graph.Unset
			c.Branch(1, unset, depD)
			c.Op(5) // induction, compare, frontier bookkeeping (Ligra edgeMap)
			if unset {
				c.StoreValue(og.labelAddr(ngh), label)
				c.StoreValue(fa+mem.Addr((len(next)-base)*mem.WordBytes), ngh)
				c.Op(3) // CAS retry check + frontier-count update
				next = append(next, ngh)
				if radii {
					ra := og.radiiA + mem.Addr(ngh*mem.WordBytes)
					depR := c.Load(ra, depN)
					old := c.Backing().Load(ra)
					c.Branch(2, label > old, depR)
					if label > old {
						c.StoreValue(ra, label)
					}
				}
			}
		}
	}
	return next
}

// search performs one complete level-synchronous BFS from src across the
// machine's cores. It labels each vertex it reaches with its distance from
// src, or with src itself when component is set (connected components).
func (og *oooGraph) search(m *ooo.Machine, src int, component, radii bool) {
	root := uint64(0)
	if component {
		root = uint64(src)
	}
	m.Cores[0].StoreValue(og.labelAddr(uint64(src)), root)
	cur, next := append(og.cur[:0], uint64(src)), og.next
	for d := uint64(1); len(cur) > 0; d++ {
		label := d
		if component {
			label = root
		}
		// Cores run in core order, so appending each core's discoveries to
		// one buffer concatenates the per-core lists.
		next = next[:0]
		for i, core := range m.Cores {
			lo, hi := apps.OwnedRange(i, len(cur), len(m.Cores))
			next = og.bfsLevel(core, i, cur[lo:hi], label, radii, next)
		}
		m.Barrier()
		cur, next = next, cur
	}
	og.cur, og.next = cur, next
}

// RunOOO executes the mode's reference algorithm on an OOO machine with the
// given core count, returning timing plus the computed labels (distances or
// components) and radii estimates for verification.
func RunOOO(m *ooo.Machine, mode Mode, g *graph.Graph, sources []int) (labels, radii []uint64) {
	og := layoutOOO(m, g, mode == ModeRadii)
	c0 := m.Cores[0]
	switch mode {
	case ModeBFS:
		og.search(m, sources[0], false, false)
	case ModeRadii:
		for i, src := range sources {
			if i > 0 {
				// Reset per-search distances (bookkeeping pass).
				for v := 0; v < g.NumVertices(); v++ {
					m.Backing.Store(og.labelAddr(uint64(v)), graph.Unset)
				}
				c0.Op(g.NumVertices() / 8) // vectorized memset cost
			}
			og.search(m, src, false, true)
			m.Barrier()
		}
	case ModeCC:
		for s := 0; s < g.NumVertices(); s++ {
			dep := c0.Load(og.labelAddr(uint64(s)), 0)
			visited := m.Backing.Load(og.labelAddr(uint64(s))) != graph.Unset
			c0.Branch(3, visited, dep)
			if visited {
				continue
			}
			if g.Degree(s) == 0 {
				c0.StoreValue(og.labelAddr(uint64(s)), uint64(s))
				continue
			}
			og.search(m, s, true, false)
		}
	}
	labels = make([]uint64, g.NumVertices())
	for v := range labels {
		labels[v] = m.Backing.Load(og.labelAddr(uint64(v)))
	}
	if mode == ModeRadii {
		radii = make([]uint64, g.NumVertices())
		for v := range radii {
			radii[v] = m.Backing.Load(og.radiiA + mem.Addr(v*mem.WordBytes))
		}
	}
	return labels, radii
}
