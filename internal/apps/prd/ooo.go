package prd

import (
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/ooo"
)

// runOOO executes the reference PageRank-Delta through the OOO core model,
// chunking the active list (scatter) and the vertex range (apply) across
// cores with a barrier between phases. It returns the computed Q32.32 ranks.
func runOOO(m *ooo.Machine, g *graph.Graph, cfg graph.PRDConfig) []uint64 {
	n := g.NumVertices()
	b := m.Backing
	offsetsA := b.AllocSlice(g.Offsets)
	neighborsA := b.AllocSlice(g.Neighbors)
	rankA := b.AllocWords(n)
	deltaA := b.AllocWords(n)
	nextDeltaA := b.AllocWords(n)
	activeA := b.AllocWords(n)

	rank := make([]uint64, n)
	delta := make([]uint64, n)
	nextDelta := make([]uint64, n)
	base := (graph.FixOne - cfg.Damping) / uint64(n)
	active, next := make([]uint64, 0, n), make([]uint64, 0, n)
	for v := 0; v < n; v++ {
		rank[v] = base
		delta[v] = base
		active = append(active, uint64(v))
	}

	chunk := func(k, i, n int) (int, int) {
		per := (n + k - 1) / k
		lo, hi := i*per, (i+1)*per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	for iter := 0; iter < cfg.MaxIters && len(active) > 0; iter++ {
		// Scatter phase.
		for i, c := range m.Cores {
			lo, hi := chunk(len(m.Cores), i, len(active))
			for _, v := range active[lo:hi] {
				depD := c.Load(deltaA+mem.Addr(v*mem.WordBytes), 0)
				c.Load(offsetsA+mem.Addr(v*mem.WordBytes), 0)
				c.Load(offsetsA+mem.Addr((v+1)*mem.WordBytes), 0)
				deg := uint64(g.Degree(int(v)))
				c.Op(3) // mul, div, loop setup
				if deg == 0 {
					continue
				}
				share := graph.FixMul(cfg.Damping, delta[v]) / deg
				start, end := g.Offsets[v], g.Offsets[v+1]
				for e := start; e < end; e++ {
					depN := c.Load(neighborsA+mem.Addr(e*mem.WordBytes), depD)
					u := g.Neighbors[e]
					c.Load(nextDeltaA+mem.Addr(u*mem.WordBytes), depN)
					c.Store(nextDeltaA + mem.Addr(u*mem.WordBytes))
					c.Op(2) // add + induction
					nextDelta[u] += share
				}
			}
		}
		m.Barrier()
		// Apply phase: each core handles an ascending, disjoint vertex
		// chunk. Cores run in core order, so appending their active
		// vertices to one list keeps it ascending, like the reference.
		next = next[:0]
		for i, c := range m.Cores {
			lo, hi := chunk(len(m.Cores), i, n)
			for v := lo; v < hi; v++ {
				depD := c.Load(nextDeltaA+mem.Addr(uint64(v)*mem.WordBytes), 0)
				d := nextDelta[v]
				c.Branch(10, d != 0, depD)
				if d == 0 {
					continue
				}
				c.Load(rankA+mem.Addr(uint64(v)*mem.WordBytes), 0)
				rank[v] += d
				delta[v] = d
				nextDelta[v] = 0
				c.Store(rankA + mem.Addr(uint64(v)*mem.WordBytes))
				c.Store(deltaA + mem.Addr(uint64(v)*mem.WordBytes))
				c.Store(nextDeltaA + mem.Addr(uint64(v)*mem.WordBytes))
				c.Op(2) // threshold mul + compare
				isActive := d > graph.FixMul(cfg.Epsilon, rank[v])
				c.Branch(11, isActive, depD)
				if isActive {
					c.Store(activeA + mem.Addr(uint64(v)*mem.WordBytes))
					next = append(next, uint64(v))
				}
			}
		}
		m.Barrier()
		active, next = next, active
	}
	// Write final ranks into simulated memory for uniform extraction.
	for v := 0; v < n; v++ {
		b.Store(rankA+mem.Addr(uint64(v)*mem.WordBytes), rank[v])
	}
	out := make([]uint64, n)
	copy(out, rank)
	return out
}
