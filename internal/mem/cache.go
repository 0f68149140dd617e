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

	// One row of ways per set, index 0 = MRU. A tag is the line address
	// with the line's dirty bit in bit 0, which a LineBytes-aligned address
	// leaves free; empty ways (noLine) trail the valid ones.
	tags []uint64

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
	// invalidate removes the line if present (used when testing flush paths).
	invalidate(line Addr)
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
	l.tags = make([]uint64, lines)
	for i := range l.tags {
		l.tags[i] = noLine
	}
	return l
}

// dirtyBit marks a tag's line as dirty.
const dirtyBit = 1

// noLine marks an empty way. Its dirty bit is clear, so evicting it is no
// writeback, and the rest is not LineBytes-aligned, so it never matches a
// line.
const noLine = ^uint64(dirtyBit)

// Name returns the level's diagnostic name.
func (l *Level) Name() string { return l.name }

// Latency returns the hit latency in cycles.
func (l *Level) Latency() uint64 { return l.latency }

// set returns the tag row of the set holding line. Every configured set
// count is a power of two, which takes a mask instead of a 64-bit division;
// other counts (tests use them) keep the modulo.
func (l *Level) set(line Addr) []uint64 {
	n := uint64(line) / LineBytes
	if l.sets&(l.sets-1) == 0 {
		n &= uint64(l.sets - 1)
	} else {
		n %= uint64(l.sets)
	}
	s := int(n) * l.ways
	return l.tags[s : s+l.ways]
}

// lookup probes the set for the line; on hit it promotes the line to MRU,
// dirtying it on a write. A hit is usually near MRU, so the shift is a
// short loop rather than a copy call.
func (l *Level) lookup(line Addr, write bool) bool {
	tags := l.set(line)
	for i, t := range tags {
		if t&^dirtyBit == uint64(line) {
			if write {
				t |= dirtyBit
			}
			for ; i > 0; i-- {
				tags[i] = tags[i-1]
			}
			tags[0] = t
			return true
		}
	}
	return false
}

// fill inserts the line at MRU, evicting LRU if the set is full.
func (l *Level) fill(line Addr, write bool) {
	tags := l.set(line)
	if tags[l.ways-1]&dirtyBit != 0 {
		// The evicted LRU line was dirty. Only the count is kept: the
		// writeback is not sent to the parent and uses no modelled memory
		// bandwidth (EXPERIMENTS.md, "Known gaps").
		l.Writebacks++
	}
	copy(tags[1:], tags)
	tags[0] = uint64(line)
	if write {
		tags[0] |= dirtyBit
	}
}

// access implements the lower interface so levels can stack.
func (l *Level) access(now uint64, line Addr, write bool) uint64 {
	l.Accesses++
	if l.lookup(line, write) {
		return now + l.latency
	}
	l.Misses++
	ready := l.parent.access(now+l.latency, line, write)
	l.fill(line, write)
	return ready
}

// Access performs a load or store of the line containing addr that departs
// the requester at cycle now, returning the cycle at which the data is
// available. Timing only; use the Backing store for values.
func (l *Level) Access(now uint64, addr Addr, write bool) uint64 {
	return l.access(now, addr.Line(), write)
}

// Contains reports whether the line holding addr is present (no LRU update).
func (l *Level) Contains(addr Addr) bool {
	line := addr.Line()
	for _, t := range l.set(line) {
		if t&^dirtyBit == uint64(line) {
			return true
		}
	}
	return false
}

// invalidate removes the line from this level and every level below it.
func (l *Level) invalidate(line Addr) {
	tags := l.set(line)
	for i, t := range tags {
		if t&^dirtyBit == uint64(line) {
			copy(tags[i:], tags[i+1:])
			tags[l.ways-1] = noLine
			break
		}
	}
	if l.parent != nil {
		l.parent.invalidate(line)
	}
}

// Invalidate removes the line containing addr from this level and below.
func (l *Level) Invalidate(addr Addr) { l.invalidate(addr.Line()) }
