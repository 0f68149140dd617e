package graph

import (
	"fmt"

	"fifer/internal/sim"
)

// The paper evaluates five real-world graphs (Table 3). We cannot ship
// those datasets, so each is replaced by a seeded synthetic generator of the
// same topology class, preserving average degree and the property that
// drives each graph's behavior (degree skew for Internet/collaboration
// graphs, long diameter for road/mesh graphs), scaled down so cycle-level
// simulation is tractable. See DESIGN.md §5.

// Input names the five Table 3 graphs.
type Input string

const (
	Hu Input = "Hu" // coAuthorsDBLP: collaboration, communities, deg 6.4
	Dy Input = "Dy" // hugetrace: dynamic-simulation mesh, deg 3.0
	Ci Input = "Ci" // Freescale1: circuit, deg 5.6
	In Input = "In" // as-Skitter: internet topology, power law, deg 12.9
	Rd Input = "Rd" // USA-road: road network, deg 2.4, huge diameter
)

// Inputs lists the Table 3 graphs in the paper's order.
var Inputs = []Input{Hu, Dy, Ci, In, Rd}

// Scale selects the generated size. Tests use ScaleTiny; benchmarks default
// to ScaleSmall.
type Scale int

const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
)

type genSpec struct {
	vertices [3]int // per scale
	deg      float64
	kind     string // "rmat", "mesh", "road"
	skew     float64
	paperV   int
	paperE   int
	paperDeg float64
	domain   string
	dataset  string
}

var specs = map[Input]genSpec{
	Hu: {vertices: [3]int{2_000, 18_000, 72_000}, deg: 6.4, kind: "rmat", skew: 0.45,
		paperV: 299_000, paperE: 1_900_000, paperDeg: 6.4, domain: "Human collaboration", dataset: "coAuthorsDBLP-symmetric"},
	Dy: {vertices: [3]int{4_000, 48_000, 192_000}, deg: 3.0, kind: "mesh", skew: 0,
		paperV: 4_600_000, paperE: 14_000_000, paperDeg: 3.0, domain: "Dynamic simulation", dataset: "hugetrace-00000"},
	Ci: {vertices: [3]int{3_000, 36_000, 144_000}, deg: 5.6, kind: "rmat", skew: 0.38,
		paperV: 3_400_000, paperE: 19_000_000, paperDeg: 5.6, domain: "Circuit simulation", dataset: "Freescale1"},
	In: {vertices: [3]int{2_500, 24_000, 96_000}, deg: 12.9, kind: "rmat", skew: 0.57,
		paperV: 1_700_000, paperE: 22_000_000, paperDeg: 12.9, domain: "Internet graph", dataset: "as-Skitter"},
	Rd: {vertices: [3]int{6_000, 64_000, 256_000}, deg: 2.4, kind: "road", skew: 0,
		paperV: 24_000_000, paperE: 58_000_000, paperDeg: 2.4, domain: "Road network", dataset: "USA-road-d-USA"},
}

// PaperStats returns the real input's published vertex count, edge count,
// and average degree (Table 3) for reporting alongside generated stats.
func PaperStats(in Input) (vertices, edges int, avgDeg float64, domain string) {
	s := specs[in]
	return s.paperV, s.paperE, s.paperDeg, s.domain
}

// DatasetName returns the name of the real dataset the generator stands in
// for (Table 3).
func DatasetName(in Input) string { return specs[in].dataset }

// Generate produces the synthetic stand-in for the named Table 3 input at
// the given scale, deterministically from seed.
func Generate(in Input, scale Scale, seed uint64) *Graph {
	n, edges := generateEdges(in, scale, seed)
	return FromEdges(string(in), n, edges, true)
}

// generateEdges returns the vertex count and undirected edge list that
// Generate symmetrizes and compresses into CSR form.
func generateEdges(in Input, scale Scale, seed uint64) (int, [][2]int) {
	s, ok := specs[in]
	if !ok {
		panic(fmt.Sprintf("graph: unknown input %q", in))
	}
	n := s.vertices[scale]
	r := sim.NewRand(seed ^ uint64(len(in)) ^ uint64(n))
	switch s.kind {
	case "rmat":
		return n, rmatEdges(n, int(float64(n)*s.deg/2), s.skew, r)
	case "mesh":
		return meshEdges(n)
	case "road":
		return roadEdges(n, r)
	default:
		panic("graph: unknown generator kind " + s.kind)
	}
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with `m`
// undirected edges over n vertices. skew in (0.25, 1) sets the probability
// mass of the "a" quadrant: 0.25 is uniform (Erdős–Rényi-like), 0.57 gives
// as-Skitter-like power-law degree distributions.
func RMAT(name string, n, m int, skew float64, r *sim.Rand) *Graph {
	return FromEdges(name, n, rmatEdges(n, m, skew, r), true)
}

// rmatEdges draws RMAT's m edges, self-loops excluded and duplicates kept.
func rmatEdges(n, m int, skew float64, r *sim.Rand) [][2]int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	a := skew
	rest := (1 - a) / 3
	b, c := rest, rest
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := 0, 0
		for i := 0; i < bits; i++ {
			p := r.Float64()
			switch {
			case p < a:
				// top-left: nothing to add
			case p < a+b:
				v |= 1 << i
			case p < a+b+c:
				u |= 1 << i
			default:
				u |= 1 << i
				v |= 1 << i
			}
		}
		if u < n && v < n && u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// meshEdges generates a triangulated 2D grid: the topology class of
// hugetrace (dynamic-simulation meshes): degree ~3 via a hexagonal-like
// lattice, low skew, large diameter. n is rounded up to a square; the
// rounded vertex count is returned with the edges.
func meshEdges(n int) (int, [][2]int) {
	side := 1
	for side*side < n {
		side++
	}
	n = side * side
	edges := make([][2]int, 0, n*2)
	id := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				edges = append(edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < side {
				edges = append(edges, [2]int{id(x, y), id(x, y+1)})
			}
			// Sparse diagonals give mean degree ≈3 after symmetrization.
			if x+1 < side && y+1 < side && (x+y)%4 == 0 {
				edges = append(edges, [2]int{id(x, y), id(x+1, y+1)})
			}
		}
	}
	return n, edges
}

// roadEdges generates a road-network-like graph: a 2D grid with most degree-4
// intersections thinned to degree ~2.4 by deleting random edges while
// keeping the grid connected via a spanning backbone, plus a few long
// "highway" shortcuts. Its diameter is Θ(side), reproducing the many-round
// BFS behavior of USA-road. Like meshEdges, it returns the rounded vertex
// count with the edges.
func roadEdges(n int, r *sim.Rand) (int, [][2]int) {
	side := 1
	for side*side < n {
		side++
	}
	n = side * side
	edges := make([][2]int, 0, n*2)
	id := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			// Backbone: serpentine path visiting every vertex keeps the
			// graph connected.
			if x+1 < side {
				edges = append(edges, [2]int{id(x, y), id(x+1, y)})
			}
		}
		if y+1 < side {
			if y%2 == 0 {
				edges = append(edges, [2]int{id(side-1, y), id(side-1, y+1)})
			} else {
				edges = append(edges, [2]int{id(0, y), id(0, y+1)})
			}
		}
	}
	// Extra vertical streets with probability tuned for avg degree ~2.4
	// (backbone contributes ~2.0).
	for y := 0; y+1 < side; y++ {
		for x := 0; x < side; x++ {
			if r.Float64() < 0.20 {
				edges = append(edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return n, edges
}
