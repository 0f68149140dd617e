package btree

import (
	"slices"
	"testing"
	"testing/quick"

	"fifer/internal/mem"
	"fifer/internal/sim"
)

// Height returns the number of node levels.
func (t *Tree) Height() int { return t.height }

// NumKeys returns the number of stored keys.
func (t *Tree) NumKeys() int { return t.numKeys }

// Len returns the number of records.
func (r Records) Len() int { return len(r.keys) }

// SimLookup walks the simulated-memory image the way the hardware pipeline
// does: linear key scans within a node, one child dereference per level.
// It returns the value, whether the key was found, and the number of node
// visits (pipeline cycles around the Silo loop, Fig. 12b).
func SimLookup(backing *mem.Backing, root mem.Addr, key uint64) (val uint64, found bool, visits int) {
	addr := root
	for {
		visits++
		numKeys, leaf := DecodeHeader(backing.Load(addr + hdrWord*mem.WordBytes))
		if leaf {
			for i := 0; i < numKeys; i++ {
				if backing.Load(KeyAddr(addr, i)) == key {
					return backing.Load(ChildAddr(addr, i)), true, visits
				}
			}
			return 0, false, visits
		}
		i := 0
		for i < numKeys && key >= backing.Load(KeyAddr(addr, i)) {
			i++
		}
		addr = mem.Addr(backing.Load(ChildAddr(addr, i)))
	}
}

// sortAndBuild sorts keys and values and lays the tree out in b.
func sortAndBuild(t testing.TB, b *mem.Backing, keys, vals []uint64) (*Tree, Records) {
	t.Helper()
	r, err := Sort(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	return Build(b, r), r
}

func build(t *testing.T, n int) (*Tree, *mem.Backing, Records) {
	t.Helper()
	b := mem.NewBacking(64 << 20)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 // unique, scattered
		vals[i] = uint64(i) + 1000
	}
	tr, r := sortAndBuild(t, b, keys, vals)
	return tr, b, r
}

func TestBuildAndLookup(t *testing.T) {
	tr, b, r := build(t, 1000)
	if tr.NumKeys() != 1000 || r.Len() != 1000 {
		t.Fatal("key count wrong")
	}
	for i := 0; i < 1000; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		v, ok := r.Lookup(k)
		if !ok || v != uint64(i)+1000 {
			t.Fatalf("lookup %d: %d %v", i, v, ok)
		}
		if sv, ok, _ := SimLookup(b, tr.RootAddr, k); !ok || sv != v {
			t.Fatalf("sim lookup %d: %d %v", i, sv, ok)
		}
	}
	if _, ok := r.Lookup(12345); ok {
		t.Fatal("missing key found")
	}
	if _, ok, _ := SimLookup(b, tr.RootAddr, 12345); ok {
		t.Fatal("sim lookup found a missing key")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Sort([]uint64{1, 1}, []uint64{2, 3}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := Sort([]uint64{1}, []uint64{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := Sort(nil, nil); err == nil {
		t.Fatal("empty key set accepted")
	}
}

func TestSimLookupMatchesGoLookup(t *testing.T) {
	tr, b, r := build(t, 5000)
	for i := 0; i < 5000; i += 7 {
		k := uint64(i) * 0x9e3779b97f4a7c15
		want, _ := r.Lookup(k)
		got, ok, visits := SimLookup(b, tr.RootAddr, k)
		if !ok || got != want {
			t.Fatalf("sim lookup %d: %d %v", i, got, ok)
		}
		if visits != tr.Height() {
			t.Fatalf("visits = %d, want height %d", visits, tr.Height())
		}
	}
	if _, ok, _ := SimLookup(b, tr.RootAddr, 999); ok {
		t.Fatal("sim lookup found missing key")
	}
}

// Property: the tree is equivalent to a map oracle for random key sets.
func TestTreeMatchesMapOracle(t *testing.T) {
	f := func(seed uint64, size uint16) bool {
		n := int(size%2000) + 1
		r := sim.NewRand(seed)
		oracle := make(map[uint64]uint64, n)
		var keys, vals []uint64
		for len(oracle) < n {
			k := r.Uint64()
			if _, dup := oracle[k]; dup {
				continue
			}
			v := r.Uint64()
			oracle[k] = v
			keys = append(keys, k)
			vals = append(vals, v)
		}
		b := mem.NewBacking(256 << 20)
		recs, err := Sort(keys, vals)
		if err != nil {
			return false
		}
		tr := Build(b, recs)
		for k, v := range oracle {
			if got, ok := recs.Lookup(k); !ok || got != v {
				return false
			}
			if got, ok, _ := SimLookup(b, tr.RootAddr, k); !ok || got != v {
				return false
			}
		}
		// Probe some absent keys.
		for i := 0; i < 16; i++ {
			k := r.Uint64()
			if _, present := oracle[k]; present {
				continue
			}
			if _, ok := recs.Lookup(k); ok {
				return false
			}
			if _, ok, _ := SimLookup(b, tr.RootAddr, k); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: sortByKey orders any key set, keeping each value with its key.
// Narrowed, masked keys crowd into one top-byte bucket, repeat, and share
// the bytes whose radix passes are skipped.
func TestSortByKeyProperty(t *testing.T) {
	f := func(seed, mask uint64, width uint8, size uint16) bool {
		r := sim.NewRand(seed)
		mask &= ^uint64(0) >> (width % 64)
		keys := make([]uint64, int(size%3000)+1)
		vals := make([]uint64, len(keys))
		for i := range keys {
			keys[i] = r.Uint64() & mask
			vals[i] = keys[i] ^ 0x5555
		}
		sk, sv := sortByKey(keys, vals)
		want := slices.Clone(keys)
		slices.Sort(want)
		if !slices.Equal(sk, want) {
			return false
		}
		for i := range sv {
			if sv[i] != sk[i]^0x5555 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	small, _, _ := build(t, Fanout) // one leaf
	if small.Height() != 1 {
		t.Fatalf("height = %d, want 1", small.Height())
	}
	big, _, _ := build(t, 10_000)
	if big.Height() < 4 || big.Height() > 7 {
		t.Fatalf("height = %d, implausible for 10k keys with fanout %d", big.Height(), Fanout)
	}
}

func TestHeaderCodec(t *testing.T) {
	n, leaf := DecodeHeader(7<<1 | 1)
	if n != 7 || !leaf {
		t.Fatal("header decode wrong")
	}
	n, leaf = DecodeHeader(3 << 1)
	if n != 3 || leaf {
		t.Fatal("internal header decode wrong")
	}
}

var sinkTree *Tree

// BenchmarkBTreeBuild sorts and bulk-loads Silo's scale-2 index size: 1M
// scattered keys.
func BenchmarkBTreeBuild(b *testing.B) {
	const n = 1 << 20
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		vals[i] = uint64(i)
	}
	size := (n/Fanout + 2) * 2 * NodeBytes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backing := mem.NewBacking(size)
		b.StartTimer()
		sinkTree, _ = sortAndBuild(b, backing, keys, vals)
	}
}
