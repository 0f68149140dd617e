package graph

import (
	"reflect"
	"sort"
	"testing"
)

// legacyFromEdges is the original map-deduplicating CSR builder, kept as the
// oracle that pins FromEdges' output bit for bit.
func legacyFromEdges(name string, n int, edges [][2]int, undirected bool) *Graph {
	type pair struct{ u, v int }
	seen := make(map[pair]struct{}, len(edges)*2)
	adj := make([][]uint64, n)
	add := func(u, v int) {
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			return
		}
		p := pair{u, v}
		if _, ok := seen[p]; ok {
			return
		}
		seen[p] = struct{}{}
		adj[u] = append(adj[u], uint64(v))
	}
	for _, e := range edges {
		add(e[0], e[1])
		if undirected {
			add(e[1], e[0])
		}
	}
	g := &Graph{Name: name, Offsets: make([]uint64, n+1)}
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	g.Neighbors = make([]uint64, 0, total)
	for v := 0; v < n; v++ {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		g.Neighbors = append(g.Neighbors, adj[v]...)
		g.Offsets[v+1] = uint64(len(g.Neighbors))
	}
	return g
}

// TestGenerateMatchesLegacy pins the generator contract: for every Table 3
// input, scale and seed, the CSR built from the generator's edge list equals
// the original builder's.
func TestGenerateMatchesLegacy(t *testing.T) {
	scales := []Scale{ScaleTiny, ScaleSmall}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, in := range Inputs {
		in := in
		t.Run(string(in), func(t *testing.T) {
			t.Parallel()
			for _, scale := range scales {
				for seed := uint64(1); seed <= 20; seed++ {
					n, edges := generateEdges(in, scale, seed)
					want := legacyFromEdges(string(in), n, edges, true)
					if got := Generate(in, scale, seed); !reflect.DeepEqual(got, want) {
						t.Fatalf("scale %d seed %d: Generate differs from the legacy builder", scale, seed)
					}
				}
			}
		})
	}
}

// FuzzFromEdges checks FromEdges against the legacy builder on arbitrary
// edge lists: duplicates, self-loops, negative and out-of-range endpoints,
// directed and undirected.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 0, 0, 1, 0, 3, 0, 0, 2, 9}, true)
	f.Add(uint8(1), []byte{0, 0}, false)
	f.Add(uint8(0), []byte{}, true)
	f.Fuzz(func(t *testing.T, n uint8, data []byte, undirected bool) {
		// Endpoints are signed bytes, so lists reach below 0 and past n.
		edges := make([][2]int, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(int8(data[i])), int(int8(data[i+1]))})
		}
		got := FromEdges("f", int(n), edges, undirected)
		want := legacyFromEdges("f", int(n), edges, undirected)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d undirected=%v edges=%v:\n got %+v\nwant %+v", n, undirected, edges, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

var sinkGraph *Graph

func BenchmarkGraphGenerate(b *testing.B) {
	for _, in := range Inputs {
		b.Run(string(in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGraph = Generate(in, ScaleSmall, uint64(i)+1)
			}
		})
	}
}
