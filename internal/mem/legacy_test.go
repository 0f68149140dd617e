package mem

import (
	"math/rand"
	"testing"
)

// legacyLevel is the original per-set-slice cache level, kept as the oracle
// that pins Level's flat set rows: same lookups, same LRU order, same misses
// and writebacks.
type legacyLevel struct {
	sets    int
	ways    int
	latency uint64
	parent  lower

	tags  [][]uint64 // per-set tag stacks, index 0 = MRU
	dirty [][]bool

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

func newLegacyLevel(sizeBytes, ways int, latency uint64, parent lower) *legacyLevel {
	sets := sizeBytes / LineBytes / ways
	l := &legacyLevel{sets: sets, ways: ways, latency: latency, parent: parent}
	l.tags = make([][]uint64, sets)
	l.dirty = make([][]bool, sets)
	for i := range l.tags {
		l.tags[i] = make([]uint64, 0, ways)
		l.dirty[i] = make([]bool, 0, ways)
	}
	return l
}

func (l *legacyLevel) setOf(line Addr) int {
	return int(uint64(line) / LineBytes % uint64(l.sets))
}

func (l *legacyLevel) lookup(line Addr, write bool) bool {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	for i, t := range tags {
		if t == uint64(line) {
			d := dirty[i] || write
			copy(tags[1:i+1], tags[:i])
			copy(dirty[1:i+1], dirty[:i])
			tags[0], dirty[0] = uint64(line), d
			return true
		}
	}
	return false
}

func (l *legacyLevel) fill(line Addr, write bool) {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	if len(tags) == l.ways {
		if dirty[len(dirty)-1] {
			l.Writebacks++
		}
		tags = tags[:len(tags)-1]
		dirty = dirty[:len(dirty)-1]
	}
	tags = append(tags, 0)
	dirty = append(dirty, false)
	copy(tags[1:], tags)
	copy(dirty[1:], dirty)
	tags[0], dirty[0] = uint64(line), write
	l.tags[s], l.dirty[s] = tags, dirty
}

func (l *legacyLevel) access(now uint64, line Addr, write bool) uint64 {
	l.Accesses++
	if l.lookup(line, write) {
		return now + l.latency
	}
	l.Misses++
	ready := l.parent.access(now+l.latency, line, write)
	l.fill(line, write)
	return ready
}

func (l *legacyLevel) Contains(addr Addr) bool {
	line := addr.Line()
	for _, t := range l.tags[l.setOf(line)] {
		if t == uint64(line) {
			return true
		}
	}
	return false
}

func (l *legacyLevel) invalidate(line Addr) {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	for i, t := range tags {
		if t == uint64(line) {
			l.tags[s] = append(tags[:i], tags[i+1:]...)
			l.dirty[s] = append(dirty[:i], dirty[i+1:]...)
			break
		}
	}
	if l.parent != nil {
		l.parent.invalidate(line)
	}
}

// FuzzLevelMatchesLegacy drives random access, Contains and Invalidate
// streams through a Level stack and a legacyLevel stack of the same
// geometry (1-8 sets x 1-16 ways, optionally a second level) over their own
// HBMs, and requires identical ready cycles, level counters and HBM counters.
func FuzzLevelMatchesLegacy(f *testing.F) {
	f.Add(uint32(0), []byte{0, 0, 0, 1, 0, 2, 2, 0, 0})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		ops := make([]byte, 3*(1+r.Intn(200)))
		r.Read(ops)
		f.Add(r.Uint32(), ops)
	}
	f.Fuzz(func(t *testing.T, geom uint32, ops []byte) {
		dim := func(shift, n uint) int { return int(geom>>shift)%int(n) + 1 }
		sets1, ways1 := dim(0, 8), dim(3, 16)
		sets2, ways2 := dim(7, 8), dim(10, 16)
		twoLevel := geom>>14&1 == 1

		newMem, oldMem := NewHBM(120, 128), NewHBM(120, 128)
		var newLLC *Level
		var oldLLC *legacyLevel
		newParent, oldParent := lower(newMem), lower(oldMem)
		if twoLevel {
			newLLC = NewLevel("llc", sets2*ways2*LineBytes, ways2, 40, newMem)
			oldLLC = newLegacyLevel(sets2*ways2*LineBytes, ways2, 40, oldMem)
			newParent, oldParent = newLLC, oldLLC
		}
		newL1 := NewLevel("l1", sets1*ways1*LineBytes, ways1, 4, newParent)
		oldL1 := newLegacyLevel(sets1*ways1*LineBytes, ways1, 4, oldParent)

		now := uint64(0)
		for i := 0; i+2 < len(ops); i += 3 {
			// 64 distinct lines keep every geometry under conflict pressure.
			addr := Addr(ops[i+1]%64)*LineBytes + Addr(ops[i+2]%LineBytes)
			now += uint64(ops[i+2] >> 4)
			switch ops[i] % 4 {
			case 0, 1:
				write := ops[i]%4 == 1
				if got, want := newL1.Access(now, addr, write), oldL1.access(now, addr.Line(), write); got != want {
					t.Fatalf("op %d: access %#x ready %d, legacy %d", i/3, uint64(addr), got, want)
				}
			case 2:
				newL1.Invalidate(addr)
				oldL1.invalidate(addr.Line())
			}
			if newL1.Contains(addr) != oldL1.Contains(addr) ||
				(twoLevel && newLLC.Contains(addr) != oldLLC.Contains(addr)) {
				t.Fatalf("op %d: Contains(%#x) differs from legacy", i/3, uint64(addr))
			}
		}
		same := func(name string, n *Level, o *legacyLevel) {
			if n.Accesses != o.Accesses || n.Misses != o.Misses || n.Writebacks != o.Writebacks {
				t.Fatalf("%s counters %d/%d/%d, legacy %d/%d/%d", name,
					n.Accesses, n.Misses, n.Writebacks, o.Accesses, o.Misses, o.Writebacks)
			}
		}
		same("l1", newL1, oldL1)
		if twoLevel {
			same("llc", newLLC, oldLLC)
		}
		if *newMem != *oldMem {
			t.Fatalf("HBM %+v, legacy %+v", *newMem, *oldMem)
		}
	})
}
