// Package mem implements the simulated memory system: a word-addressed
// functional backing store (so simulated programs compute real results), a
// bump allocator for laying out application data structures, set-associative
// caches with LRU replacement, and a bandwidth-limited high-bandwidth-memory
// model. The hierarchy matches Table 2 of the paper: per-PE 32 KB 8-way L1
// (4-cycle), shared 16-way LLC (512 KB per PE, 40-cycle), and 120-cycle
// 256 GB/s main memory.
package mem

import (
	"fmt"
	"unsafe"
)

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
// size: words live in fixed pages, and a word on an untouched page reads as
// zero, as untouched simulated memory always has. Two page tables share the
// page index. Load reads the read table. Store writes the write table, which
// holds only the pages the store owns: an owned page is allocated on its
// first store. A page AllocSlice maps from its caller is in the read table
// only, and the first Store to it copies it into an owned page
// (copy-on-write), so stores never reach the caller's slice. An owned page
// is in both tables.
type Backing struct {
	read  []*[pageWords]uint64 // Load's page table; nil = untouched page
	write []*[pageWords]uint64 // owned pages; nil = untouched or mapped page
	size  int                  // capacity in words
	brk   Addr                 // bump-allocation watermark
}

// pageWords is the host page size in words (16 KiB): the granule in which
// host memory follows what a program touches. 4 KiB pages would follow it
// more closely, but the page table of a large store then outgrows the host's
// L1 data cache, which slows random stores (BenchmarkBackingStore).
const pageWords = 1 << 11

// NewBacking creates a backing store of the given size in bytes (rounded up
// to a whole word).
func NewBacking(sizeBytes int) *Backing {
	nwords := (sizeBytes + WordBytes - 1) / WordBytes
	return &Backing{size: nwords, brk: LineBytes} // keep address 0 unused
}

// Size returns the store capacity in bytes.
func (b *Backing) Size() int { return b.size * WordBytes }

// page returns owned page p, allocating it on first use.
func (b *Backing) page(p int) *[pageWords]uint64 {
	if p < len(b.write) && b.write[p] != nil {
		return b.write[p]
	}
	return b.own(p)
}

// own allocates owned page p, growing the tables as needed. A mapped page's
// words are copied in, so the page reads as before. It stays out of line so
// that page, Store's fast path, inlines.
//
//go:noinline
func (b *Backing) own(p int) *[pageWords]uint64 {
	b.grow(p)
	pg := new([pageWords]uint64)
	if m := b.read[p]; m != nil {
		*pg = *m
	}
	b.read[p], b.write[p] = pg, pg
	return pg
}

// grow extends both page tables to hold page p.
func (b *Backing) grow(p int) {
	if n := p + 1 - len(b.read); n > 0 {
		b.read = append(b.read, make([]*[pageWords]uint64, n)...)
		b.write = append(b.write, make([]*[pageWords]uint64, n)...)
	}
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
	if p := i / pageWords; p < uint(len(b.read)) && b.read[p] != nil {
		return b.read[p][i%pageWords]
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

// AllocSlice reserves storage for vals, lays them out there, and returns
// the base address. It is the workhorse for laying out CSR arrays and the
// like. Each whole host page vals covers is mapped, not copied: the store
// reads it from vals until the first Store to it copies it into an owned
// page. Only the partial pages at either end are copied in, so laying out a
// large input costs at most two host pages. Stores never reach vals, and vals
// must not change while the store is live, as the read-only inputs a sweep
// shares between jobs already promise.
func (b *Backing) AllocSlice(vals []uint64) Addr {
	base := b.AllocWords(len(vals)) // range-checks the whole slice
	for i := int(base / WordBytes); len(vals) > 0; {
		p, off, n := i/pageWords, i%pageWords, pageWords
		if off == 0 && len(vals) >= pageWords {
			b.grow(p)
			b.read[p], b.write[p] = (*[pageWords]uint64)(vals), nil
		} else {
			n = copy(b.page(p)[off:], vals)
		}
		vals, i = vals[n:], i+n
	}
	return base
}

// AllocFloats lays vals out as their IEEE-754 bits, the words
// math.Float64bits returns, under AllocSlice's contract, and returns the
// base address.
func (b *Backing) AllocFloats(vals []float64) Addr {
	// float64 and uint64 share size and alignment, so this view of vals
	// reads each value's bits unchanged, NaN payloads and -0 included.
	return b.AllocSlice(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)))
}
