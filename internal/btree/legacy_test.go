package btree

import (
	"fmt"
	"sort"

	"fifer/internal/mem"
)

// LegacyBuild exposes the original builder to the external test package,
// which compares it against Build on Silo's datasets.
var LegacyBuild = legacyBuild

// legacyBuild is the original sort.Slice-and-append bulk loader, kept as the
// oracle that pins Build's memory image word for word.
func legacyBuild(backing *mem.Backing, keys, values []uint64) (*Tree, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("btree: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("btree: empty key set")
	}
	type kv struct{ k, v uint64 }
	pairs := make([]kv, len(keys))
	for i := range keys {
		pairs[i] = kv{keys[i], values[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].k == pairs[i-1].k {
			return nil, fmt.Errorf("btree: duplicate key %d", pairs[i].k)
		}
	}
	var level []*node
	for i := 0; i < len(pairs); i += Fanout {
		end := i + Fanout
		if end > len(pairs) {
			end = len(pairs)
		}
		n := &node{leaf: true}
		for _, p := range pairs[i:end] {
			n.keys = append(n.keys, p.k)
			n.values = append(n.values, p.v)
		}
		level = append(level, n)
	}
	height := 1
	for len(level) > 1 {
		var up []*node
		for i := 0; i < len(level); i += Fanout + 1 {
			end := i + Fanout + 1
			if end > len(level) {
				end = len(level)
			}
			n := &node{}
			n.children = append(n.children, level[i:end]...)
			for _, c := range level[i+1 : end] {
				n.keys = append(n.keys, firstKey(c))
			}
			up = append(up, n)
		}
		level = up
		height++
	}
	legacyLayout(backing, level[0])
	return &Tree{height: height, numKeys: len(pairs), RootAddr: level[0].addr}, nil
}

func legacyLayout(backing *mem.Backing, n *node) {
	if !n.leaf {
		for _, c := range n.children {
			legacyLayout(backing, c)
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
