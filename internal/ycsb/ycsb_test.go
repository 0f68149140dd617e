package ycsb

import (
	"math"
	"testing"

	"fifer/internal/sim"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	r := sim.NewRand(1)
	z := NewZipfian(1000, 0.99, r)
	counts := make([]int, 1000)
	n := 100_000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the most popular; the tail must still be hit.
	if counts[0] < n/50 {
		t.Fatalf("head not hot: %d", counts[0])
	}
	tail := 0
	for _, c := range counts[500:] {
		tail += c
	}
	if tail == 0 {
		t.Fatal("tail never sampled")
	}
	if counts[0] < 20*counts[500] && counts[500] > 0 {
		t.Fatalf("skew too weak: head %d vs mid %d", counts[0], counts[500])
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a := NewZipfian(100, 0.99, sim.NewRand(7))
	b := NewZipfian(100, 0.99, sim.NewRand(7))
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("nondeterministic")
		}
	}
}

func TestGenerateC(t *testing.T) {
	w := GenerateC(500, 2000, 42, DefaultKeyOf)
	if len(w.Keys) != 2000 {
		t.Fatal("wrong op count")
	}
	valid := map[uint64]bool{}
	for i := uint64(0); i < 500; i++ {
		valid[DefaultKeyOf(i)] = true
	}
	for _, k := range w.Keys {
		if !valid[k] {
			t.Fatalf("request key %#x not in the loaded key set", k)
		}
	}
}

func TestDefaultKeyOfBijective(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100_000; i++ {
		k := DefaultKeyOf(i)
		if seen[k] {
			t.Fatalf("collision at %d", i)
		}
		seen[k] = true
	}
}

// TestZetaTableExact recomputes every zetaTable entry with the plain sum:
// the table must return the same float64 bits, or Zipfian samples (and so
// every Silo lookup stream) would move.
func TestZetaTableExact(t *testing.T) {
	for _, e := range zetaTable {
		if got, want := math.Float64bits(zeta(e.n, 0.99)), math.Float64bits(zetaSum(e.n, 0.99)); got != want || got != e.bits {
			t.Errorf("zeta(%d, 0.99) = %#x, plain sum %#x", e.n, got, want)
		}
	}
}
