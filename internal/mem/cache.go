package mem

import "fmt"

// Level is a timing-only set-associative cache with LRU replacement and a
// write-back, write-allocate policy. It tracks tags, not data (data lives in
// the Backing store). Levels are composed into a hierarchy by pointing each
// level's parent at the next-lower level; the lowest level points at a *HBM.
type Level struct {
	name    string
	sets    int
	ways    int
	latency uint64 // access (hit) latency in cycles
	parent  lower  // where misses go

	// One row of ways per set, index 0 = MRU. A tag is the line's index
	// (its address / LineBytes) shifted left one, with the line's dirty bit
	// in bit 0; empty ways (noLine) trail the valid ones.
	tags []uint32

	// Statistics.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// lower is anything a cache level can miss into.
type lower interface {
	// access returns the cycle at which the requested line is available,
	// given that the request departs this level at cycle `now`.
	access(now uint64, line Addr, write bool) (ready uint64)
}

// NewLevel creates a cache level. sizeBytes must be a multiple of
// ways*LineBytes.
func NewLevel(name string, sizeBytes, ways int, latency uint64, parent lower) *Level {
	lines := sizeBytes / LineBytes
	if lines == 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache %q: size %d B incompatible with %d ways", name, sizeBytes, ways))
	}
	sets := lines / ways
	l := &Level{name: name, sets: sets, ways: ways, latency: latency, parent: parent}
	l.tags = make([]uint32, lines)
	for i := range l.tags {
		l.tags[i] = noLine
	}
	return l
}

// dirtyBit marks a tag's line as dirty.
const dirtyBit = 1

// noLine marks an empty way. Its dirty bit is clear, so evicting it is no
// writeback, and its line index, the largest a tag holds, is past the last
// line of any accepted backing store, so it never matches a line.
const noLine = ^uint32(dirtyBit)

// MaxBackingBytes is the largest backing store a hierarchy accepts: every
// one of its lines has a tag of its own, and none is noLine's index.
const MaxBackingBytes = (1<<31 - 1) * LineBytes

// Name returns the level's diagnostic name.
func (l *Level) Name() string { return l.name }

// Latency returns the hit latency in cycles.
func (l *Level) Latency() uint64 { return l.latency }

// set returns the tag row of the set holding line and line's clean tag.
// Every configured set count is a power of two, which takes a mask instead
// of a 64-bit division; other counts (tests use them) keep the modulo.
func (l *Level) set(line Addr) (row []uint32, tag uint32) {
	n := uint64(line) / LineBytes
	tag = uint32(n) << 1
	if l.sets&(l.sets-1) == 0 {
		n &= uint64(l.sets - 1)
	} else {
		n %= uint64(l.sets)
	}
	s := int(n) * l.ways
	return l.tags[s : s+l.ways], tag
}

// lookup probes the set row for the tag; on hit it promotes the line to
// MRU, dirtying it on a write. A hit is usually near MRU, so the shift is a
// short loop rather than a copy call.
func (l *Level) lookup(row []uint32, tag uint32, write bool) bool {
	for i, t := range row {
		if t&^dirtyBit == tag {
			if write {
				t |= dirtyBit
			}
			for ; i > 0; i-- {
				row[i] = row[i-1]
			}
			row[0] = t
			return true
		}
	}
	return false
}

// fill inserts the tag at MRU of its set row, evicting LRU if the set is
// full.
func (l *Level) fill(row []uint32, tag uint32, write bool) {
	if row[len(row)-1]&dirtyBit != 0 {
		// The evicted LRU line was dirty. Only the count is kept: the
		// writeback is not sent to the parent and uses no modelled memory
		// bandwidth (EXPERIMENTS.md, "Known gaps").
		l.Writebacks++
	}
	copy(row[1:], row)
	if write {
		tag |= dirtyBit
	}
	row[0] = tag
}

// access implements the lower interface so levels can stack.
func (l *Level) access(now uint64, line Addr, write bool) uint64 {
	l.Accesses++
	row, tag := l.set(line)
	if l.lookup(row, tag, write) {
		return now + l.latency
	}
	l.Misses++
	ready := l.parent.access(now+l.latency, line, write)
	l.fill(row, tag, write)
	return ready
}

// Access performs a load or store of the line containing addr that departs
// the requester at cycle now, returning the cycle at which the data is
// available. Timing only; use the Backing store for values.
func (l *Level) Access(now uint64, addr Addr, write bool) uint64 {
	return l.access(now, addr.Line(), write)
}
