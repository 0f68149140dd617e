// Package graph provides the graph substrate used by the BFS, CC,
// PageRank-Delta, and Radii benchmarks: a compressed-sparse-row (CSR)
// representation (Fig. 1c), synthetic generators shaped after the paper's
// Table 3 inputs, and reference implementations of all four algorithms.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an unweighted directed graph in CSR form. For the paper's
// undirected inputs every edge appears in both directions.
type Graph struct {
	Name      string
	Offsets   []uint64 // length NumVertices+1
	Neighbors []uint64 // length NumEdges
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.Neighbors) }

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neigh returns the neighbor slice of vertex v.
func (g *Graph) Neigh(v int) []uint64 {
	return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
}

// MaxDegree returns the largest out-degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph %s: missing offsets", g.Name)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph %s: offsets[0] = %d, want 0", g.Name, g.Offsets[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph %s: offsets decrease at vertex %d", g.Name, v)
		}
	}
	if g.Offsets[n] != uint64(len(g.Neighbors)) {
		return fmt.Errorf("graph %s: offsets[n]=%d, want %d", g.Name, g.Offsets[n], len(g.Neighbors))
	}
	for i, u := range g.Neighbors {
		if u >= uint64(n) {
			return fmt.Errorf("graph %s: neighbor %d at %d out of range", g.Name, u, i)
		}
	}
	return nil
}

// FromEdges builds a CSR graph from an edge list, deduplicating and sorting
// adjacency lists, dropping self-loops and out-of-range edges, and (when
// undirected) adding both directions.
func FromEdges(name string, n int, edges [][2]int, undirected bool) *Graph {
	keep := func(e [2]int) bool {
		return e[0] != e[1] && e[0] >= 0 && e[1] >= 0 && e[0] < n && e[1] < n
	}
	// Degree-count every kept edge, duplicates included, into the offsets,
	// then fill one flat neighbor array.
	offsets := make([]uint64, n+1)
	for _, e := range edges {
		if keep(e) {
			offsets[e[0]+1]++
			if undirected {
				offsets[e[1]+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]uint64, offsets[n])
	next := slices.Clone(offsets[:n])
	for _, e := range edges {
		if keep(e) {
			neighbors[next[e[0]]] = uint64(e[1])
			next[e[0]]++
			if undirected {
				neighbors[next[e[1]]] = uint64(e[0])
				next[e[1]]++
			}
		}
	}
	// Sort and deduplicate each list, compacting the lists toward the front;
	// offsets[v] is already final when vertex v's list moves.
	lo := uint64(0)
	for v := 0; v < n; v++ {
		hi := offsets[v+1]
		list := neighbors[lo:hi]
		slices.Sort(list)
		list = slices.Compact(list)
		offsets[v+1] = offsets[v] + uint64(copy(neighbors[offsets[v]:], list))
		lo = hi
	}
	return &Graph{Name: name, Offsets: offsets, Neighbors: neighbors[:offsets[n]]}
}
