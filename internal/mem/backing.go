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
// Host memory follows what the simulated program touches, not the configured
// size: words live in fixed pages allocated on their first store, and a word
// on an untouched page reads as zero, as untouched simulated memory always has.
type Backing struct {
	pages []*[pageWords]uint64 // page table; nil = untouched page
	size  int                  // capacity in words
	brk   Addr                 // bump-allocation watermark
}

// pageWords is the host page size in words (64 KiB).
const pageWords = 1 << 13

// NewBacking creates a backing store of the given size in bytes (rounded up
// to a whole word).
func NewBacking(sizeBytes int) *Backing {
	nwords := (sizeBytes + WordBytes - 1) / WordBytes
	return &Backing{size: nwords, brk: LineBytes} // keep address 0 unused
}

// Size returns the store capacity in bytes.
func (b *Backing) Size() int { return b.size * WordBytes }

// page returns host page p, allocating it (and growing the table) on first use.
func (b *Backing) page(p int) *[pageWords]uint64 {
	if p >= len(b.pages) {
		b.pages = append(b.pages, make([]*[pageWords]uint64, p+1-len(b.pages))...)
	}
	if b.pages[p] == nil {
		b.pages[p] = new([pageWords]uint64)
	}
	return b.pages[p]
}

// wordIndex returns a's word index. It stays small enough to inline into
// Load and Store; badAccess builds the panic for a bad address.
func (b *Backing) wordIndex(a Addr) uint {
	if a%WordBytes != 0 || a >= Addr(b.size)*WordBytes {
		b.badAccess(a)
	}
	return uint(a / WordBytes)
}

func (b *Backing) badAccess(a Addr) {
	if a%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", uint64(a)))
	}
	panic(fmt.Sprintf("mem: access at %#x outside %d-byte backing store", uint64(a), b.Size()))
}

// Load returns the word at address a.
func (b *Backing) Load(a Addr) uint64 {
	i := b.wordIndex(a)
	if p := i / pageWords; p < uint(len(b.pages)) && b.pages[p] != nil {
		return b.pages[p][i%pageWords]
	}
	return 0
}

// Store writes v to the word at address a.
func (b *Backing) Store(a Addr, v uint64) {
	i := b.wordIndex(a)
	b.page(int(i / pageWords))[i%pageWords] = v
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
	return base
}

// AllocWords reserves n 64-bit words and returns the base address.
func (b *Backing) AllocWords(n int) Addr { return b.Alloc(n * WordBytes) }

// AllocSlice reserves storage for vals and copies them in, returning the
// base address. It is the workhorse for laying out CSR arrays and the like.
func (b *Backing) AllocSlice(vals []uint64) Addr {
	base := b.AllocWords(len(vals)) // range-checks the whole slice
	for i := int(base / WordBytes); len(vals) > 0; {
		n := copy(b.page(i / pageWords)[i%pageWords:], vals)
		vals, i = vals[n:], i+n
	}
	return base
}

// Footprint returns the number of bytes allocated so far.
func (b *Backing) Footprint() int { return int(b.brk) }
