package graph

import "fifer/internal/sim"

// Reference (serial, pure-Go) implementations of the four graph benchmarks.
// They define correct answers for the simulated pipelines and are also the
// code the OOO baseline's instruction traces are derived from.

// Unset marks an unreached vertex in distance/component arrays.
const Unset = ^uint64(0)

// BFS returns the distance of every vertex from src (Fig. 1a), with Unset
// for unreachable vertices.
func BFS(g *Graph, src int) []uint64 {
	dist := make([]uint64, g.NumVertices())
	bfs(g, src, dist, nil, nil)
	return dist
}

// bfs fills dist with every vertex's distance from src, searching with cur
// and next as the frontier buffers, and returns them grown so that repeated
// searches reuse them.
func bfs(g *Graph, src int, dist, cur, next []uint64) ([]uint64, []uint64) {
	for i := range dist {
		dist[i] = Unset
	}
	dist[src] = 0
	cur = append(cur[:0], uint64(src))
	d := uint64(1)
	for len(cur) > 0 {
		next = next[:0]
		for _, v := range cur {
			for _, u := range g.Neigh(int(v)) {
				if dist[u] == Unset {
					dist[u] = d
					next = append(next, u)
				}
			}
		}
		cur, next = next, cur
		d++
	}
	return cur, next
}

// CC labels every vertex with the smallest vertex id in its connected
// component by launching successive breadth-first searches, the structure
// the paper's CC benchmark uses ("launches multiple breadth-first searches
// to discover connectivity").
func CC(g *Graph) []uint64 {
	comp := make([]uint64, g.NumVertices())
	for i := range comp {
		comp[i] = Unset
	}
	var cur, next []uint64
	for s := 0; s < g.NumVertices(); s++ {
		if comp[s] != Unset {
			continue
		}
		comp[s] = uint64(s)
		cur = append(cur[:0], uint64(s))
		for len(cur) > 0 {
			next = next[:0]
			for _, v := range cur {
				for _, u := range g.Neigh(int(v)) {
					if comp[u] == Unset {
						comp[u] = uint64(s)
						next = append(next, u)
					}
				}
			}
			cur, next = next, cur
		}
	}
	return comp
}

// PRDConfig parameterizes PageRank-Delta. All arithmetic is Q32.32
// fixed-point so that the simulated pipeline (whose accumulation order
// differs) produces bit-identical results to this reference.
type PRDConfig struct {
	Damping  uint64 // Q32.32
	Epsilon  uint64 // Q32.32 relative threshold for revisiting a vertex
	MaxIters int
}

// FixOne is 1.0 in Q32.32.
const FixOne = uint64(1) << 32

// ToFix converts a float to Q32.32.
func ToFix(f float64) uint64 { return uint64(f * float64(FixOne)) }

// FixMul multiplies two Q32.32 values.
func FixMul(a, b uint64) uint64 {
	hi := (a >> 32) * (b >> 32)
	mid1 := (a >> 32) * (b & 0xffffffff)
	mid2 := (a & 0xffffffff) * (b >> 32)
	lo := (a & 0xffffffff) * (b & 0xffffffff)
	return hi<<32 + mid1 + mid2 + lo>>32
}

// DefaultPRD returns the standard Ligra-like parameters.
func DefaultPRD() PRDConfig {
	return PRDConfig{Damping: ToFix(0.85), Epsilon: ToFix(0.01), MaxIters: 10}
}

// PRD runs PageRank-Delta: vertices are only reprocessed when the change in
// their PageRank exceeds Epsilon times their current value (Sec. 7.2).
// It returns the final PageRank values in Q32.32.
func PRD(g *Graph, cfg PRDConfig) []uint64 {
	n := g.NumVertices()
	rank := make([]uint64, n)
	delta := make([]uint64, n)
	nextDelta := make([]uint64, n)
	active := make([]uint64, 0, n)
	base := (FixOne - cfg.Damping) / uint64(n)
	for v := 0; v < n; v++ {
		rank[v] = base
		delta[v] = base
		active = append(active, uint64(v))
	}
	for iter := 0; iter < cfg.MaxIters && len(active) > 0; iter++ {
		for i := range nextDelta {
			nextDelta[i] = 0
		}
		for _, v := range active {
			deg := g.Degree(int(v))
			if deg == 0 {
				continue
			}
			share := FixMul(cfg.Damping, delta[v]) / uint64(deg)
			for _, u := range g.Neigh(int(v)) {
				nextDelta[u] += share
			}
		}
		active = active[:0]
		for v := 0; v < n; v++ {
			d := nextDelta[v]
			rank[v] += d
			delta[v] = d
			if d > 0 && d > FixMul(cfg.Epsilon, rank[v]) {
				active = append(active, uint64(v))
			}
		}
	}
	return rank
}

// SampleSources picks k distinct random vertices for radii estimation.
func SampleSources(g *Graph, k int, r *sim.Rand) []int {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	seen := make(map[int]struct{}, k)
	var out []int
	for len(out) < k {
		v := r.Intn(n)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Radii estimates per-vertex eccentricity by running BFS from the given
// source subset and recording, for each vertex, the maximum distance
// observed to any sampled source (Sec. 7.2); the graph-radius estimate is
// the maximum entry. Returns the per-vertex estimates.
func Radii(g *Graph, sources []int) []uint64 {
	radii := make([]uint64, g.NumVertices())
	dist := make([]uint64, g.NumVertices())
	var cur, next []uint64
	for _, src := range sources {
		cur, next = bfs(g, src, dist, cur, next)
		for v, d := range dist {
			if d != Unset && d > radii[v] {
				radii[v] = d
			}
		}
	}
	return radii
}
