// Package mem implements the simulated memory system: a word-addressed
// functional backing store (so simulated programs compute real results), a
// bump allocator for laying out application data structures, set-associative
// caches with LRU replacement, and a bandwidth-limited high-bandwidth-memory
// model. The hierarchy matches Table 2 of the paper: per-PE 32 KB 8-way L1
// (4-cycle), shared 16-way LLC (512 KB per PE, 40-cycle), and 120-cycle
// 256 GB/s main memory.
package mem

import "fmt"

// WordBytes is the machine word size; the fabric operates at 64-bit width.
const WordBytes = 8

// LineBytes is the cache line size throughout the hierarchy.
const LineBytes = 64

// Addr is a simulated byte address.
type Addr uint64

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// Backing is the functional backing store: a flat, word-granular memory that
// holds the actual data of simulated applications. Caches model timing only;
// values always come from (and go to) the backing store, which keeps the
// functional and timing models trivially coherent.
//
// Host memory follows the bump allocator rather than the configured size:
// words covers the allocated prefix and grows geometrically, and a word
// beyond it reads as zero, as untouched simulated memory always has.
type Backing struct {
	words []uint64
	size  int  // capacity in words
	brk   Addr // bump-allocation watermark
}

// NewBacking creates a backing store of the given size in bytes (rounded up
// to a whole word).
func NewBacking(sizeBytes int) *Backing {
	nwords := (sizeBytes + WordBytes - 1) / WordBytes
	return &Backing{size: nwords, brk: LineBytes} // keep address 0 unused
}

// Size returns the store capacity in bytes.
func (b *Backing) Size() int { return b.size * WordBytes }

// cover extends words to the first n words (n <= size), doubling the host
// allocation so a run of bump allocations copies O(footprint) in total.
func (b *Backing) cover(n int) {
	if n > cap(b.words) {
		w := make([]uint64, len(b.words), min(max(n, 2*cap(b.words), 1<<13), b.size))
		copy(w, b.words)
		b.words = w
	}
	if n > len(b.words) {
		b.words = b.words[:n] // the spare capacity is still zero from make
	}
}

func (b *Backing) wordIndex(a Addr) int {
	if a%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", uint64(a)))
	}
	i := int(a / WordBytes)
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("mem: access at %#x outside %d-byte backing store", uint64(a), b.Size()))
	}
	return i
}

// Load returns the word at address a.
func (b *Backing) Load(a Addr) uint64 {
	if i := b.wordIndex(a); i < len(b.words) {
		return b.words[i]
	}
	return 0
}

// Store writes v to the word at address a.
func (b *Backing) Store(a Addr, v uint64) {
	i := b.wordIndex(a)
	if i >= len(b.words) {
		b.cover(i + 1)
	}
	b.words[i] = v
}

// Alloc reserves n bytes and returns the base address, aligned to a cache
// line so distinct structures never share lines.
func (b *Backing) Alloc(n int) Addr {
	base := b.brk
	b.brk += Addr((n + LineBytes - 1) &^ (LineBytes - 1))
	if int(b.brk) > b.Size() {
		panic(fmt.Sprintf("mem: out of simulated memory (brk %#x > size %#x); enlarge the backing store",
			uint64(b.brk), b.Size()))
	}
	b.cover(int(b.brk / WordBytes))
	return base
}

// AllocWords reserves n 64-bit words and returns the base address.
func (b *Backing) AllocWords(n int) Addr { return b.Alloc(n * WordBytes) }

// AllocSlice reserves storage for vals and copies them in, returning the
// base address. It is the workhorse for laying out CSR arrays and the like.
func (b *Backing) AllocSlice(vals []uint64) Addr {
	base := b.AllocWords(len(vals)) // range-checks and covers the whole slice
	copy(b.words[base/WordBytes:], vals)
	return base
}

// Footprint returns the number of bytes allocated so far.
func (b *Backing) Footprint() int { return int(b.brk) }
