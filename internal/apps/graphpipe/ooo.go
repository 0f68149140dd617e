package graphpipe

import (
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

// bfsLevel processes one fringe level on the given core, appending
// discovered vertices to the core's fringe buffer. Returns the new fringe.
func (og *oooGraph) bfsLevel(c *ooo.Core, coreIdx int, fringe []uint64, d uint64, radii bool) []uint64 {
	var next []uint64
	fa := og.fringeA[coreIdx]
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
				c.StoreValue(og.labelAddr(ngh), d)
				c.StoreValue(fa+mem.Addr(len(next)*mem.WordBytes), ngh)
				c.Op(3) // CAS retry check + frontier-count update
				next = append(next, ngh)
				if radii {
					ra := og.radiiA + mem.Addr(ngh*mem.WordBytes)
					depR := c.Load(ra, depN)
					old := c.Backing().Load(ra)
					c.Branch(2, d > old, depR)
					if d > old {
						c.StoreValue(ra, d)
					}
				}
			}
		}
	}
	return next
}

// bfsRun performs one complete BFS from src across the machine's cores,
// labeling vertices with their distance.
func (og *oooGraph) bfsRun(m *ooo.Machine, src int, radii bool) {
	m.Cores[0].StoreValue(og.labelAddr(uint64(src)), 0)
	cur := []uint64{uint64(src)}
	for d := uint64(1); len(cur) > 0; d++ {
		var next []uint64
		k := len(m.Cores)
		per := (len(cur) + k - 1) / k
		for i, core := range m.Cores {
			lo, hi := i*per, (i+1)*per
			if lo > len(cur) {
				lo = len(cur)
			}
			if hi > len(cur) {
				hi = len(cur)
			}
			next = append(next, og.bfsLevel(core, i, cur[lo:hi], d, radii)...)
		}
		m.Barrier()
		cur = next
	}
}

// RunOOO executes the mode's reference algorithm on an OOO machine with the
// given core count, returning timing plus the computed labels (distances or
// components) and radii estimates for verification.
func RunOOO(m *ooo.Machine, mode Mode, g *graph.Graph, sources []int) (labels, radii []uint64) {
	og := layoutOOO(m, g, mode == ModeRadii)
	c0 := m.Cores[0]
	switch mode {
	case ModeBFS:
		og.bfsRun(m, sources[0], false)
	case ModeRadii:
		for i, src := range sources {
			if i > 0 {
				// Reset per-search distances (bookkeeping pass).
				for v := 0; v < g.NumVertices(); v++ {
					m.Backing.Store(og.labelAddr(uint64(v)), graph.Unset)
				}
				c0.Op(g.NumVertices() / 8) // vectorized memset cost
			}
			og.bfsRun(m, src, true)
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
			og.ccRun(m, s)
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

// ccRun is a BFS that writes the seed id instead of distances.
func (og *oooGraph) ccRun(m *ooo.Machine, seed int) {
	c0 := m.Cores[0]
	c0.StoreValue(og.labelAddr(uint64(seed)), uint64(seed))
	cur := []uint64{uint64(seed)}
	for len(cur) > 0 {
		var next []uint64
		k := len(m.Cores)
		per := (len(cur) + k - 1) / k
		for i, core := range m.Cores {
			lo, hi := i*per, (i+1)*per
			if lo > len(cur) {
				lo = len(cur)
			}
			if hi > len(cur) {
				hi = len(cur)
			}
			next = append(next, og.bfsLevel(core, i, cur[lo:hi], uint64(seed), false)...)
		}
		m.Barrier()
		cur = next
	}
}
