package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"fifer/internal/sim"
)

// maxDegree returns g's largest out-degree.
func maxDegree(g *Graph) int {
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		m = max(m, g.Degree(v))
	}
	return m
}

// fromFix converts Q32.32 to float64.
func fromFix(x uint64) float64 { return float64(x) / float64(FixOne) }

func line(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return FromEdges("line", n, edges, true)
}

func TestFromEdgesDedupAndSort(t *testing.T) {
	g := FromEdges("t", 4, [][2]int{{0, 1}, {1, 0}, {0, 1}, {0, 3}, {0, 0}, {2, 9}}, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Neigh(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("neigh(0) = %v", got)
	}
	if g.Degree(2) != 0 { // out-of-range edge dropped
		t.Fatal("invalid edge kept")
	}
}

func TestBFSLine(t *testing.T) {
	g := line(10)
	d := BFS(g, 0)
	for v := 0; v < 10; v++ {
		if d[v] != uint64(v) {
			t.Fatalf("dist[%d] = %d", v, d[v])
		}
	}
	d = BFS(g, 5)
	if d[0] != 5 || d[9] != 4 {
		t.Fatal("middle-source BFS wrong")
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges("t", 4, [][2]int{{0, 1}}, true)
	d := BFS(g, 0)
	if d[2] != Unset || d[3] != Unset {
		t.Fatal("unreachable vertices not Unset")
	}
}

// Property: BFS distances satisfy the triangle property — adjacent vertices
// differ by at most one level, and every non-source reached vertex has a
// neighbor one level closer.
func TestBFSLevelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		g := RMAT("p", 200, 400, 0.5, r)
		d := BFS(g, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if d[v] == Unset {
				continue
			}
			hasParent := d[v] == 0
			for _, u := range g.Neigh(v) {
				if d[u] == Unset {
					return false // reachable vertex with unreached neighbor
				}
				diff := int64(d[v]) - int64(d[u])
				if diff > 1 || diff < -1 {
					return false
				}
				if d[u]+1 == d[v] {
					hasParent = true
				}
			}
			if !hasParent && g.Degree(v) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCCProperties(t *testing.T) {
	r := sim.NewRand(3)
	g := RMAT("cc", 300, 500, 0.5, r)
	comp := CC(g)
	// Same component across every edge; label is the component's min id.
	for v := 0; v < g.NumVertices(); v++ {
		if comp[v] == Unset {
			t.Fatalf("vertex %d unlabeled", v)
		}
		if comp[v] > uint64(v) {
			t.Fatalf("label %d > vertex id %d (not the min)", comp[v], v)
		}
		for _, u := range g.Neigh(v) {
			if comp[u] != comp[v] {
				t.Fatalf("edge %d-%d crosses components", v, u)
			}
		}
	}
	// The labeled vertex of each component labels itself.
	for v := 0; v < g.NumVertices(); v++ {
		if comp[comp[v]] != comp[v] {
			t.Fatal("component root mislabeled")
		}
	}
}

func TestPRDFixedPoint(t *testing.T) {
	if FixMul(ToFix(0.5), ToFix(0.5)) != ToFix(0.25) {
		t.Fatal("FixMul wrong")
	}
	if got := fromFix(ToFix(0.85)); got < 0.8499 || got > 0.8501 {
		t.Fatalf("round-trip = %g", got)
	}
}

func TestPRDConservesAndConverges(t *testing.T) {
	r := sim.NewRand(5)
	g := RMAT("prd", 200, 800, 0.5, r)
	cfg := DefaultPRD()
	rank := PRD(g, cfg)
	// Ranks are positive and the total mass stays bounded by ~1.
	var total uint64
	for _, x := range rank {
		if x == 0 {
			t.Fatal("zero rank")
		}
		total += x
	}
	if fromFix(total) > 1.2 {
		t.Fatalf("rank mass %g too large", fromFix(total))
	}
	// More iterations never decrease any vertex's rank (deltas are >= 0).
	cfg2 := cfg
	cfg2.MaxIters = cfg.MaxIters + 5
	rank2 := PRD(g, cfg2)
	for v := range rank {
		if rank2[v] < rank[v] {
			t.Fatal("rank decreased with more iterations")
		}
	}
}

func TestRadiiMatchesBFSMax(t *testing.T) {
	r := sim.NewRand(9)
	g := RMAT("radii", 150, 400, 0.5, r)
	sources := SampleSources(g, 3, r)
	radii := Radii(g, sources)
	for v := 0; v < g.NumVertices(); v++ {
		var want uint64
		for _, s := range sources {
			if d := BFS(g, s)[v]; d != Unset && d > want {
				want = d
			}
		}
		if radii[v] != want {
			t.Fatalf("radii[%d] = %d, want %d", v, radii[v], want)
		}
	}
}

// perSourceRadii is the original Radii, one fresh BFS per source, kept as
// the oracle for the buffer-reusing search.
func perSourceRadii(g *Graph, sources []int) []uint64 {
	radii := make([]uint64, g.NumVertices())
	for _, src := range sources {
		for v, d := range BFS(g, src) {
			if d != Unset && d > radii[v] {
				radii[v] = d
			}
		}
	}
	return radii
}

// TestRadiiMatchesPerSourceBFS checks Radii, which reuses one distance array
// and one pair of frontiers across its searches, against perSourceRadii on
// every input at scales 0-1 (0 only under -short), for several seeds and
// source counts, a repeated source included.
func TestRadiiMatchesPerSourceBFS(t *testing.T) {
	scales := []Scale{ScaleTiny, ScaleSmall}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, in := range Inputs {
		for _, sc := range scales {
			for seed := uint64(1); seed <= 3; seed++ {
				g := Generate(in, sc, seed)
				r := sim.NewRand(seed ^ 0x4add1)
				for _, k := range []int{1, 4, 7} {
					sources := SampleSources(g, k, r)
					if k == 7 {
						sources = append(sources, sources[0])
					}
					if got, want := Radii(g, sources), perSourceRadii(g, sources); !slices.Equal(got, want) {
						t.Fatalf("%s scale %d seed %d, %d sources: Radii differs from per-source BFS", in, sc, seed, len(sources))
					}
				}
			}
		}
	}
}

func TestSampleSourcesDistinct(t *testing.T) {
	r := sim.NewRand(1)
	g := line(20)
	s := SampleSources(g, 10, r)
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] || v < 0 || v >= 20 {
			t.Fatal("bad sample")
		}
		seen[v] = true
	}
	if len(s) != 10 {
		t.Fatal("wrong count")
	}
}

func TestGeneratorsMatchTable3(t *testing.T) {
	for _, in := range Inputs {
		g := Generate(in, ScaleTiny, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		_, _, wantDeg, _ := PaperStats(in)
		got := g.AvgDegree()
		if got < wantDeg*0.55 || got > wantDeg*1.8 {
			t.Errorf("%s: avg degree %.2f too far from paper's %.1f", in, got, wantDeg)
		}
		// Symmetric: every edge exists in both directions.
		for v := 0; v < g.NumVertices(); v += 97 {
			for _, u := range g.Neigh(v) {
				found := false
				for _, w := range g.Neigh(int(u)) {
					if int(w) == v {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: edge %d->%d not symmetric", in, v, u)
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Generate(In, ScaleTiny, 7)
	b := Generate(In, ScaleTiny, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic generator")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatal("nondeterministic neighbors")
		}
	}
}

func TestRoadGraphHasLargeDiameter(t *testing.T) {
	g := Generate(Rd, ScaleTiny, 1)
	d := BFS(g, 0)
	max := uint64(0)
	for _, x := range d {
		if x != Unset && x > max {
			max = x
		}
	}
	// A road-like grid of n vertices has diameter Θ(sqrt(n)).
	if max < 30 {
		t.Fatalf("road graph eccentricity %d too small for a road topology", max)
	}
	// And the skewed internet graph must have a far smaller one.
	gi := Generate(In, ScaleTiny, 1)
	di := BFS(gi, BFSMaxDegreeVertex(gi))
	maxI := uint64(0)
	for _, x := range di {
		if x != Unset && x > maxI {
			maxI = x
		}
	}
	if maxI*3 > max {
		t.Fatalf("internet graph eccentricity %d not much smaller than road %d", maxI, max)
	}
}

// BFSMaxDegreeVertex returns the highest-degree vertex (test helper shared
// with the benchmarks' source selection).
func BFSMaxDegreeVertex(g *Graph) int {
	best, deg := 0, -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > deg {
			best, deg = v, d
		}
	}
	return best
}

func TestDegreeSkew(t *testing.T) {
	// The internet graph must be far more skewed than the mesh.
	in := Generate(In, ScaleTiny, 1)
	dy := Generate(Dy, ScaleTiny, 1)
	if float64(maxDegree(in)) < 5*in.AvgDegree() {
		t.Fatalf("internet graph not skewed: max %d avg %.1f", maxDegree(in), in.AvgDegree())
	}
	if float64(maxDegree(dy)) > 4*dy.AvgDegree() {
		t.Fatalf("mesh too skewed: max %d avg %.1f", maxDegree(dy), dy.AvgDegree())
	}
}
