// Package btree implements the in-memory B+tree index that the Silo
// benchmark performs lookups against (Sec. 7.2). The tree is built in Go
// and then laid out in the simulator's backing store with an explicit node
// format, so simulated pipelines traverse it with real loads and real cache
// behavior.
package btree

import (
	"fmt"
	"slices"

	"fifer/internal/mem"
)

// Fanout is the number of keys per node. 8 keys makes a node 17 words
// (136 B ≈ 2 cache lines), giving trees of depth ~7 for a few million keys,
// comparable to Silo's Masstree-style index behavior.
const Fanout = 8

// Node layout in simulated memory, in 64-bit words:
//
//	word 0:            header = numKeys<<1 | leafBit
//	words 1..Fanout:   keys (only numKeys valid)
//	words Fanout+1..:  leaf: values; internal: child node addresses
//	                   (internal nodes hold numKeys+1 children)
const (
	hdrWord   = 0
	keysWord  = 1
	childWord = keysWord + Fanout
	nodeWords = childWord + Fanout + 1
	leafBit   = 1
)

// NodeBytes is a node's footprint in simulated memory.
const NodeBytes = nodeWords * mem.WordBytes

// node is the Go-side build representation.
type node struct {
	leaf     bool
	keys     []uint64
	values   []uint64 // leaves only
	children []*node  // internal only
	addr     mem.Addr
}

// Tree is a B+tree laid out in simulated memory.
type Tree struct {
	height   int
	numKeys  int
	RootAddr mem.Addr
}

// Records is a record set ordered by key with no key repeated: what Build
// lays out and what Lookup answers from. Only Sort makes one, and nothing
// writes it afterwards, so jobs may share it.
type Records struct {
	keys, values []uint64
}

// Sort orders the records (keys[i], values[i]) by key. It fails on a length
// mismatch, an empty set or a repeated key. keys and values are not
// modified.
func Sort(keys, values []uint64) (Records, error) {
	if len(keys) != len(values) {
		return Records{}, fmt.Errorf("btree: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return Records{}, fmt.Errorf("btree: empty key set")
	}
	sortedKeys, sortedVals := sortByKey(keys, values)
	for i := 1; i < len(sortedKeys); i++ {
		if sortedKeys[i] == sortedKeys[i-1] {
			return Records{}, fmt.Errorf("btree: duplicate key %d", sortedKeys[i])
		}
	}
	return Records{sortedKeys, sortedVals}, nil
}

// Lookup is the Go-side reference: it returns the value for key and whether
// a record holds it.
func (r Records) Lookup(key uint64) (uint64, bool) {
	i, ok := slices.BinarySearch(r.keys, key)
	if !ok {
		return 0, false
	}
	return r.values[i], true
}

// Build bulk-loads a B+tree over r, which must come from Sort, and lays it
// out in backing. It only reads r.
func Build(backing *mem.Backing, r Records) *Tree {
	// Bulk-load leaves: each slices its keys and values out of the sorted
	// arrays.
	n := len(r.keys)
	leaves := make([]node, (n+Fanout-1)/Fanout)
	level := make([]*node, len(leaves))
	for i := range leaves {
		lo, hi := i*Fanout, min((i+1)*Fanout, n)
		leaves[i] = node{leaf: true, keys: r.keys[lo:hi:hi], values: r.values[lo:hi:hi]}
		level[i] = &leaves[i]
	}
	height := 1
	// Build internal levels: an internal node over children c0..ck uses
	// separator keys = first key of each child after the first.
	for len(level) > 1 {
		seps := make([]uint64, len(level))
		for i, c := range level {
			seps[i] = firstKey(c)
		}
		inner := make([]node, (len(level)+Fanout)/(Fanout+1))
		up := make([]*node, len(inner))
		for i := range inner {
			lo, hi := i*(Fanout+1), min((i+1)*(Fanout+1), len(level))
			inner[i] = node{children: level[lo:hi:hi], keys: seps[lo+1 : hi : hi]}
			up[i] = &inner[i]
		}
		level = up
		height++
	}
	layout(backing, level[0])
	return &Tree{height: height, numKeys: n, RootAddr: level[0].addr}
}

type kv struct{ k, v uint64 }

// sortByKey returns copies of keys and values ordered by key. It scatters
// the pairs into 256 buckets by the key's top byte, then sorts each bucket,
// small enough to stay in cache for spread-out keys, by radixSort on the
// remaining bytes.
func sortByKey(keys, values []uint64) (sortedKeys, sortedVals []uint64) {
	var start [257]int
	for _, k := range keys {
		start[k>>56+1]++
	}
	for d := 0; d < 256; d++ {
		start[d+1] += start[d]
	}
	pairs := make([]kv, len(keys))
	next := start
	for i, k := range keys {
		pairs[next[k>>56]] = kv{k, values[i]}
		next[k>>56]++
	}
	sortedKeys, sortedVals = make([]uint64, len(keys)), make([]uint64, len(keys))
	var scratch []kv
	for d := 0; d < 256; d++ {
		lo, hi := start[d], start[d+1]
		if lo == hi {
			continue
		}
		if cap(scratch) < hi-lo {
			scratch = make([]kv, hi-lo)
		}
		for i, p := range radixSort(pairs[lo:hi], scratch[:hi-lo], 56) {
			sortedKeys[lo+i], sortedVals[lo+i] = p.k, p.v
		}
	}
	return sortedKeys, sortedVals
}

// radixSort orders src by the key's low bits with an LSD radix sort, one
// byte per pass, skipping the bytes on which every key agrees. It uses dst
// (as long as src) as scratch and returns whichever of the two holds the
// result.
func radixSort(src, dst []kv, bits int) []kv {
	for shift := 0; shift < bits; shift += 8 {
		var next [256]int
		for _, p := range src {
			next[byte(p.k>>shift)]++
		}
		if next[byte(src[0].k>>shift)] == len(src) {
			continue
		}
		pos := 0
		for d, n := range next {
			next[d], pos = pos, pos+n
		}
		for _, p := range src {
			d := byte(p.k >> shift)
			dst[next[d]] = p
			next[d]++
		}
		src, dst = dst, src
	}
	return src
}

func firstKey(n *node) uint64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// layout writes the subtree into simulated memory (children first so every
// child address is known when the parent is written).
func layout(backing *mem.Backing, n *node) {
	if !n.leaf {
		for _, c := range n.children {
			layout(backing, c)
		}
	}
	n.addr = backing.Alloc(NodeBytes)
	hdr := uint64(len(n.keys)) << 1
	if n.leaf {
		hdr |= leafBit
	}
	backing.Store(n.addr+hdrWord*mem.WordBytes, hdr)
	for i, k := range n.keys {
		backing.Store(n.addr+mem.Addr((keysWord+i)*mem.WordBytes), k)
	}
	if n.leaf {
		for i, v := range n.values {
			backing.Store(n.addr+mem.Addr((childWord+i)*mem.WordBytes), v)
		}
	} else {
		for i, c := range n.children {
			backing.Store(n.addr+mem.Addr((childWord+i)*mem.WordBytes), uint64(c.addr))
		}
	}
}

// --- Simulated-memory traversal helpers -----------------------------------
//
// These mirror exactly what the Silo pipeline stages do with loads; the OOO
// trace generator and the tests use them to walk the layout.

// DecodeHeader splits a node header word.
func DecodeHeader(hdr uint64) (numKeys int, leaf bool) {
	return int(hdr >> 1), hdr&leafBit != 0
}

// KeyAddr returns the simulated address of keys[i] in the node at addr.
func KeyAddr(addr mem.Addr, i int) mem.Addr {
	return addr + mem.Addr((keysWord+i)*mem.WordBytes)
}

// ChildAddr returns the simulated address of children[i] (or values[i] in a
// leaf).
func ChildAddr(addr mem.Addr, i int) mem.Addr {
	return addr + mem.Addr((childWord+i)*mem.WordBytes)
}
