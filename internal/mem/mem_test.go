package mem

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBackingLoadStore(t *testing.T) {
	b := NewBacking(1 << 20)
	a := b.AllocWords(16)
	b.Store(a, 42)
	b.Store(a+8, 43)
	if b.Load(a) != 42 || b.Load(a+8) != 43 {
		t.Fatal("load/store mismatch")
	}
}

func TestBackingAllocAlignment(t *testing.T) {
	b := NewBacking(1 << 20)
	a1 := b.Alloc(10)
	a2 := b.Alloc(1)
	if a1%LineBytes != 0 || a2%LineBytes != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if a1.Line() == a2.Line() {
		t.Fatal("distinct allocations share a line")
	}
}

func TestBackingAllocSlice(t *testing.T) {
	b := NewBacking(1 << 20)
	vals := []uint64{5, 6, 7}
	a := b.AllocSlice(vals)
	for i, v := range vals {
		if b.Load(a+Addr(i*WordBytes)) != v {
			t.Fatalf("slice word %d wrong", i)
		}
	}
}

// Footprint returns the number of simulated bytes allocated so far.
func (b *Backing) Footprint() int { return int(b.brk) }

// hostPages counts the host pages the store owns: the write table. Mapped
// pages belong to the caller and are not counted.
func (b *Backing) hostPages() int {
	n := 0
	for _, p := range b.write {
		if p != nil {
			n++
		}
	}
	return n
}

// TestBackingGrowsWithAllocations pins the lazy host allocation: the
// configured size stays the capacity, words on untouched pages read as zero
// and accept stores, data survives every growth step, and host pages never
// outnumber the pages touched.
func TestBackingGrowsWithAllocations(t *testing.T) {
	b := NewBacking(64 << 20)
	if b.Size() != 64<<20 {
		t.Fatalf("Size %d, want %d", b.Size(), 64<<20)
	}
	far := Addr(32 << 20)
	if b.Load(far) != 0 {
		t.Fatal("untouched word not zero")
	}
	var addrs []Addr
	touched := map[int]bool{}
	for i := 0; i < 200; i++ {
		a := b.AllocWords(1 + i*37)
		b.Store(a, uint64(i))
		addrs = append(addrs, a)
		touched[int(a/WordBytes)/pageWords] = true
	}
	b.Store(far, 7)
	touched[int(far/WordBytes)/pageWords] = true
	for i, a := range addrs {
		if got := b.Load(a); got != uint64(i) {
			t.Fatalf("word %d at %#x = %d after growth", i, uint64(a), got)
		}
	}
	if b.Load(far) != 7 || b.Load(far-8) != 0 || b.Load(far+8) != 0 {
		t.Fatal("store beyond the allocated prefix lost or leaked")
	}
	if got := b.hostPages(); got > len(touched) {
		t.Fatalf("%d host pages for %d touched pages", got, len(touched))
	}
}

// TestBackingFarStoreAllocatesOnePage pins that a store far past brk costs
// one host page, not the prefix up to it.
func TestBackingFarStoreAllocatesOnePage(t *testing.T) {
	b := NewBacking(64 << 20)
	b.Store(Addr(48<<20), 1)
	if got := b.hostPages(); got != 1 {
		t.Fatalf("far store allocated %d host pages, want 1", got)
	}
	if b.Load(Addr(48<<20)) != 1 || b.Load(LineBytes) != 0 {
		t.Fatal("far store lost or leaked")
	}
}

// TestBackingHostFollowsFootprint pins host memory to the simulated
// footprint: after a series of AllocSlice layouts, the host pages hold at
// most the footprint plus one page.
func TestBackingHostFollowsFootprint(t *testing.T) {
	b := NewBacking(256 << 20)
	for i := 0; i < 40; i++ {
		vals := make([]uint64, 1+i*i*97)
		for j := range vals {
			vals[j] = uint64(i*j + 1)
		}
		a := b.AllocSlice(vals)
		for j, v := range vals {
			if got := b.Load(a + Addr(j*WordBytes)); got != v {
				t.Fatalf("slice %d word %d = %d, want %d", i, j, got, v)
			}
		}
	}
	host := b.hostPages() * pageWords * WordBytes
	if limit := b.Footprint() + pageWords*WordBytes; host > limit {
		t.Fatalf("host %d B for a %d B footprint (limit %d)", host, b.Footprint(), limit)
	}
}

func TestBackingPanics(t *testing.T) {
	b := NewBacking(1 << 12)
	for _, f := range []func(){
		func() { b.Load(3) },                    // unaligned
		func() { b.Load(1 << 20) },              // out of range
		func() { b.Alloc(1 << 21); b.Alloc(1) }, // out of simulated memory
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// FuzzBacking runs Alloc, AllocSlice, AllocFloats, Store and Load sequences
// against a flat model on stores of a few pages. Addresses cluster around
// page boundaries and run past brk and past the end of the store; every
// panic (unaligned, out of range, out of simulated memory) must fire exactly
// when the model says it should. Slices of up to three pages land at
// line-aligned bases, so whole pages are mapped and partial ones copied;
// stores aim into them too. After every operation each page reads as the
// model says and every slice passed in still equals its pre-call copy; at
// the end every word loads as the model says.
func FuzzBacking(f *testing.F) {
	f.Add(uint8(0), []byte{0, 10, 2, 1, 3, 0, 1, 2, 0, 4, 3, 0, 2, 9})
	// A slice laid across the first page boundary, read on both sides.
	f.Add(uint8(5), []byte{0, 0, 0, 255, 8, 1, 0, 0, 255, 3, 1, 0, 3, 0, 0x3f, 3, 1, 0xff})
	// A store far past brk, then a mapped three-page slice over it, a store
	// into the mapped page and loads of it.
	f.Add(uint8(4), []byte{2, 2, 3, 7, 4, 0, 0, 3, 5, 3, 2, 3, 5, 0, 0, 64, 0, 9, 3, 2, 3, 3, 2, 0, 2, 3, 3, 3, 3, 3, 3})
	// Float slices: one mapped page written through, and a partial one.
	f.Add(uint8(3), []byte{4, 0, 0, 6, 0, 5, 0, 0, 40, 0, 7, 3, 1, 5, 4, 0, 0, 4, 100, 3, 2, 1})
	f.Fuzz(func(t *testing.T, sz uint8, ops []byte) {
		size := (1+int(sz%8))*pageWords*WordBytes + int(sz/8%4)*WordBytes
		b := NewBacking(size)
		model := make([]uint64, size/WordBytes)
		hi := 0 // model words below hi may be nonzero
		brk := Addr(LineBytes)
		type input struct {
			base       Addr
			words, was []uint64
		}
		var inputs []input
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := int(ops[0])
			ops = ops[1:]
			return v
		}
		// panics runs f and returns its panic message, "" if it returned.
		panics := func(f func()) (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			f()
			return ""
		}
		// wrong reports whether msg is not the panic want names ("" = none).
		wrong := func(msg, want string) bool {
			return (msg == "") != (want == "") || !strings.Contains(msg, want)
		}
		alloc := func(nbytes int) (base Addr, oom string) {
			base = brk
			brk += Addr((nbytes + LineBytes - 1) &^ (LineBytes - 1))
			if int(brk) > size {
				oom = "out of simulated memory"
			}
			return base, oom
		}
		// badAddr names the panic an access at a must raise ("" = none).
		badAddr := func(a Addr) string {
			if a%WordBytes != 0 {
				return "unaligned"
			} else if a >= Addr(size) {
				return "outside"
			}
			return ""
		}
		store := func(step int, a Addr, v uint64) {
			bad := badAddr(a)
			if p := panics(func() { b.Store(a, v) }); wrong(p, bad) {
				t.Fatalf("step %d: Store(%#x) panic %q in a %d B store, want %q", step, uint64(a), p, size, bad)
			}
			if bad == "" {
				model[a/WordBytes] = v
				hi = max(hi, int(a/WordBytes)+1)
			}
		}
		// allocSlice lays out words through AllocSlice, or through
		// AllocFloats as the floats with those bits.
		allocSlice := func(step int, words []uint64, floats bool) {
			want, oom := alloc(len(words) * WordBytes)
			was := slices.Clone(words)
			var got Addr
			var p string
			if floats {
				fs := make([]float64, len(words))
				for i, w := range words {
					fs[i] = math.Float64frombits(w)
				}
				p = panics(func() { got = b.AllocFloats(fs) })
				words = unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs))
			} else {
				p = panics(func() { got = b.AllocSlice(words) })
			}
			if wrong(p, oom) || (p == "" && got != want) {
				t.Fatalf("step %d: AllocSlice(%d, floats %v) = %#x panic %q, want %#x panic %q",
					step, len(words), floats, got, p, want, oom)
			}
			if oom == "" {
				inputs = append(inputs, input{want, words, was})
				copy(model[want/WordBytes:], words)
				hi = max(hi, int(want/WordBytes)+len(words))
			}
		}
		// check compares every page Load reads from with the model, a page
		// at a time, and every slice laid out with its pre-call copy.
		check := func(step int) {
			var zero [pageWords]uint64
			for lo := 0; lo < hi; lo += pageWords {
				want := model[lo:min(lo+pageWords, len(model))]
				got := zero[:len(want)]
				if p := lo / pageWords; p < len(b.read) && b.read[p] != nil {
					got = b.read[p][:len(want)]
				}
				if !slices.Equal(got, want) {
					for w := range want {
						if got[w] != want[w] {
							t.Fatalf("step %d: word %#x reads %d, model %d", step, (lo+w)*WordBytes, got[w], want[w])
						}
					}
				}
			}
			for _, in := range inputs {
				if !slices.Equal(in.words, in.was) {
					t.Fatalf("step %d: the slice laid out at %#x changed", step, uint64(in.base))
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			op := next()
			// An address near a page boundary: page, signed word offset,
			// and a misalignment in the top bits of the offset byte.
			page, off := next()%10, next()
			a := Addr(page*pageWords*WordBytes) + Addr(int(int8(off<<2)>>2)*WordBytes) + Addr(off>>6)
			switch op % 6 {
			case 0: // Alloc of up to two pages, mostly small
				n := next() << (next() % 10)
				want, oom := alloc(n)
				var got Addr
				if p := panics(func() { got = b.Alloc(n) }); wrong(p, oom) || (p == "" && got != want) {
					t.Fatalf("step %d: Alloc(%d) = %#x panic %q, want %#x panic %q", step, n, got, p, want, oom)
				}
			case 1: // AllocSlice of up to 1020 words
				vals := make([]uint64, 4*next())
				for i := range vals {
					vals[i] = uint64(step)<<32 | uint64(i) + 1
				}
				allocSlice(step, vals, false)
			case 2:
				store(step, a, uint64(next())+1)
			case 3:
				var got uint64
				bad := badAddr(a)
				if p := panics(func() { got = b.Load(a) }); wrong(p, bad) || (p == "" && got != model[a/WordBytes]) {
					t.Fatalf("step %d: Load(%#x) = %d panic %q, model %d panic %q", step, uint64(a), got, p, model[a/WordBytes], bad)
				}
			case 4: // AllocSlice or AllocFloats of 0-3 pages, give or take 1 Ki words
				mode := next()
				n := max(0, mode%4*pageWords+int(int8(next()))*8)
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = (uint64(step)<<32 | uint64(i) + 1) * 0x9e3779b97f4a7c15
				}
				allocSlice(step, vals, mode&4 != 0)
			case 5: // Store into the last slice laid out, mapped pages included
				if len(inputs) == 0 || len(inputs[len(inputs)-1].words) == 0 {
					break
				}
				in := inputs[len(inputs)-1]
				w := (next()<<8 | next()) % len(in.words)
				store(step, in.base+Addr(w*WordBytes), uint64(next())+1)
			}
			check(step)
		}
		for w := 0; w < hi; w++ {
			if got := b.Load(Addr(w * WordBytes)); got != model[w] {
				t.Fatalf("final Load(%#x) = %d, model %d", w*WordBytes, got, model[w])
			}
		}
		if b.Footprint() != int(brk) {
			t.Fatalf("Footprint %d, model %d", b.Footprint(), brk)
		}
	})
}

// TestAllocSliceMapsWholePages pins the no-copy layout: a 10-page slice at
// a base that is not page-aligned owns at most two host pages (the partial
// ends), a store to a mapped page copies just that page, and the slice
// itself never changes.
func TestAllocSliceMapsWholePages(t *testing.T) {
	b := NewBacking(64 << 20)
	b.Alloc(3 * LineBytes)
	vals := make([]uint64, 10*pageWords)
	for i := range vals {
		vals[i] = uint64(i)*3 + 1
	}
	was := slices.Clone(vals)
	a := b.AllocSlice(vals)
	if a%(pageWords*WordBytes) == 0 {
		t.Fatalf("base %#x is page-aligned", uint64(a))
	}
	if got := b.hostPages(); got > 2 {
		t.Fatalf("a 10-page slice owns %d host pages, want at most 2", got)
	}
	mid := a + 5*pageWords*WordBytes
	b.Store(mid, 99)
	if got := b.hostPages(); got > 3 {
		t.Fatalf("one store to a mapped page left %d owned pages, want at most 3", got)
	}
	for i, v := range vals {
		w := a + Addr(i*WordBytes)
		if w == mid {
			v = 99
		}
		if got := b.Load(w); got != v {
			t.Fatalf("word %d = %d, want %d", i, got, v)
		}
	}
	if !slices.Equal(vals, was) {
		t.Fatal("a store reached the caller's slice")
	}
}

// TestAllocFloatsBits pins AllocFloats to math.Float64bits, word for word,
// for special values (-0, infinities, NaN payloads, subnormals) and for a
// slice long enough to map whole pages.
func TestAllocFloatsBits(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8deadbeef0001),
		math.MaxFloat64, math.SmallestNonzeroFloat64}
	long := make([]float64, 3*pageWords+17)
	for i := range long {
		long[i] = math.Float64frombits(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b := NewBacking(1 << 20)
	for _, vals := range [][]float64{special, long, nil} {
		a := b.AllocFloats(vals)
		for i, v := range vals {
			if got, want := b.Load(a+Addr(i*WordBytes)), math.Float64bits(v); got != want {
				t.Fatalf("word %d of %d = %#x, want %#x", i, len(vals), got, want)
			}
		}
	}
}

// TestConcurrentMappedInputs maps one slice into two stores that two
// goroutines write and read at once, as the jobs of a sweep share an input.
// Each store sees its own writes over the input, and the input never
// changes; run it under -race.
func TestConcurrentMappedInputs(t *testing.T) {
	vals := make([]uint64, 4*pageWords+100)
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	was := slices.Clone(vals)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewBacking(1 << 20)
			b.Alloc(LineBytes * (1 + g))
			a := b.AllocSlice(vals)
			want := func(i int) uint64 {
				if i%7 == g {
					return uint64(g+1)<<40 | uint64(i)
				}
				return uint64(i) + 1
			}
			for i := g; i < len(vals); i += 7 {
				b.Store(a+Addr(i*WordBytes), want(i))
			}
			for i := range vals {
				if got := b.Load(a + Addr(i*WordBytes)); got != want(i) {
					t.Errorf("goroutine %d: word %d = %#x, want %#x", g, i, got, want(i))
					return
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(vals, was) {
		t.Fatal("a store reached the shared slice")
	}
}

func TestCacheHitMiss(t *testing.T) {
	hbm := NewHBM(120, 128)
	llc := NewLevel("llc", 1<<20, 16, 40, hbm)
	l1 := NewLevel("l1", 1<<15, 8, 4, llc)

	// Cold miss goes to memory.
	ready := l1.Access(0, 0x1000, false)
	if ready < 120 {
		t.Fatalf("cold miss ready=%d, want >= mem latency", ready)
	}
	// Hit is L1 latency.
	if got := l1.Access(200, 0x1008, false); got != 204 {
		t.Fatalf("hit ready=%d, want 204", got)
	}
	if l1.Accesses != 2 || l1.Misses != 1 {
		t.Fatalf("stats: %d accesses %d misses", l1.Accesses, l1.Misses)
	}
	if !l1.contains(0x1000) || !llc.contains(0x1000) {
		t.Fatal("fill did not populate levels")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	hbm := NewHBM(100, 128)
	// Direct-ish tiny cache: 2 ways, 2 sets (4 lines of 64B = 256B).
	l1 := NewLevel("l1", 256, 2, 1, hbm)
	// Three lines mapping to the same set (stride = sets*LineBytes = 128).
	l1.Access(0, 0, false)
	l1.Access(10, 128, false)
	l1.Access(20, 0, false)   // touch 0: now MRU
	l1.Access(30, 256, false) // evicts 128 (LRU)
	if !l1.contains(0) || l1.contains(128) || !l1.contains(256) {
		t.Fatal("LRU order wrong")
	}
}

// TestCacheWriteback pins the dirty bit kept in each tag: evicting a dirty
// line counts one writeback, evicting a clean line or an empty way counts
// none, and a dirty line evicted and refilled by a read is clean.
func TestCacheWriteback(t *testing.T) {
	l1 := NewLevel("l1", 128, 2, 1, NewHBM(100, 128)) // one set, two ways
	step := func(addr Addr, write bool, want uint64) {
		t.Helper()
		l1.Access(0, addr, write)
		if l1.Writebacks != want {
			t.Fatalf("after access %#x (write %v): writebacks = %d, want %d",
				uint64(addr), write, l1.Writebacks, want)
		}
	}
	step(0, true, 0)    // fills an empty way: [0*, -]
	step(64, false, 0)  // fills the other: [64, 0*]
	step(0, false, 0)   // a read hit keeps 0 dirty: [0*, 64]
	step(128, false, 0) // evicts clean 64: [128, 0*]
	step(192, false, 1) // evicts dirty 0: [192, 128]
	step(256, true, 1)  // evicts clean 128: [256*, 192]
	step(64, false, 1)  // evicts clean 192: [64, 256*]
	step(320, false, 2) // evicts dirty 256: [320, 64]

	// Conflict fills evict a dirty line; the line refilled by a read is
	// clean, and no way keeps a dirty bit behind.
	step(384, true, 2)  // evicts clean 64: [384*, 320]
	step(448, false, 2) // evicts clean 320: [448, 384*]
	step(512, false, 3) // evicts dirty 384: [512, 448]
	step(384, false, 3) // evicts clean 448: [384, 512]
	for i, tag := range l1.tags {
		if tag&dirtyBit != 0 {
			t.Fatalf("way %d holds dirty tag %#x after read fills", i, tag)
		}
	}
	step(576, false, 3) // evicts clean 512: [576, 384]
	step(640, false, 3) // evicts 384, clean since its refill
}

// TestLevelHostBytes pins a cache level's host storage to one 4-byte tag
// per line plus the fixed header.
func TestLevelHostBytes(t *testing.T) {
	const sizeBytes, ways, header = 512 << 10, 16, 512
	const lines = sizeBytes / LineBytes
	var sink *Level
	got := allocBytes(func() { sink = NewLevel("llc", sizeBytes, ways, 40, nil) })
	if limit := uint64(4*lines + header); got > limit {
		t.Fatalf("a %d-line level allocates %d host bytes, want at most %d", lines, got, limit)
	}
	_ = sink
}

// allocBytes returns the mean host bytes one call of build allocates.
func allocBytes(build func()) uint64 {
	const runs = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestPortRejectsOversizeBacking pins the tags' reach: a hierarchy binds a
// backing store of MaxBackingBytes, and refuses a larger one whose lines
// its tags would alias.
func TestPortRejectsOversizeBacking(t *testing.T) {
	h := NewHierarchy(DefaultPEHierarchy(1))
	h.Port(0, NewBacking(MaxBackingBytes))
	defer func() {
		if recover() == nil {
			t.Fatal("Port accepted a backing store past MaxBackingBytes")
		}
	}()
	h.Port(0, NewBacking(MaxBackingBytes+WordBytes))
}

// contains reports whether the line holding addr is present (no LRU update).
func (l *Level) contains(addr Addr) bool {
	row, tag := l.set(addr.Line())
	for _, t := range row {
		if t&^dirtyBit == tag {
			return true
		}
	}
	return false
}

// Property: the cache hierarchy is timing-only — a port's loads always
// return exactly what a flat memory oracle holds, under random writes.
func TestPortMatchesOracle(t *testing.T) {
	f := func(ops []uint16, vals []uint64) bool {
		h := NewHierarchy(DefaultPEHierarchy(1))
		b := NewBacking(1 << 20)
		base := b.AllocWords(256)
		p := h.Port(0, b)
		oracle := make(map[Addr]uint64)
		now := uint64(0)
		for i, op := range ops {
			a := base + Addr(int(op%256)*WordBytes)
			if i < len(vals) && vals[i]%2 == 0 {
				p.Store(now, a, vals[i])
				oracle[a] = vals[i]
			} else {
				v, _ := p.Load(now, a)
				if v != oracle[a] {
					return false
				}
			}
			now += 4
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHBMBandwidthQueueing(t *testing.T) {
	h := NewHBM(100, 128) // 2 lines per cycle
	// Five back-to-back requests in the same cycle: later ones queue.
	var readies []uint64
	for i := 0; i < 5; i++ {
		readies = append(readies, h.access(10, Addr(i*64), false))
	}
	if readies[0] != 110 {
		t.Fatalf("first ready=%d, want 110", readies[0])
	}
	if readies[4] <= readies[0] {
		t.Fatal("bandwidth queueing missing")
	}
	if h.Stalled == 0 {
		t.Fatal("stall accounting missing")
	}
}

func TestHBMEpochReset(t *testing.T) {
	h := NewHBM(100, 128)
	// Client A saturates the channel late in its timeline.
	for i := 0; i < 1000; i++ {
		h.access(uint64(1000+i), Addr(i*64), false)
	}
	// Client B, simulated afterwards, starts at time 0: it must not queue
	// behind client A's epoch.
	if ready := h.access(0, 0x100000, false); ready > 200 {
		t.Fatalf("cross-epoch request queued: ready=%d", ready)
	}
}

func TestHierarchyConfigs(t *testing.T) {
	pe := DefaultPEHierarchy(16)
	if pe.LLCBytes != 16*(512<<10) || pe.L2Bytes != 0 {
		t.Fatal("PE hierarchy wrong")
	}
	core := DefaultCoreHierarchy(4)
	if core.L2Bytes == 0 || core.LLCBytes != 4*(2<<20) {
		t.Fatal("core hierarchy wrong")
	}
	h := NewHierarchy(core)
	if len(h.L1s) != 4 || len(h.L2s) != 4 {
		t.Fatal("client caches missing")
	}
}

var sinkAddr Addr

func BenchmarkAllocSlice(b *testing.B) {
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(vals) * WordBytes))
	back := NewBacking(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if back.Footprint()+len(vals)*WordBytes > back.Size() {
			b.StopTimer()
			back = NewBacking(64 << 20)
			b.StartTimer()
		}
		sinkAddr = back.AllocSlice(vals)
	}
}

var sinkWord uint64

// BenchmarkBackingStore writes random words over a 32 MB footprint, the
// counterpart of BenchmarkBackingLoad. Every page is owned before the
// timer starts, so it times Store's fast path.
func BenchmarkBackingStore(b *testing.B) {
	const words = 32 << 20 / WordBytes
	back := NewBacking(64 << 20)
	base := back.AllocWords(words)
	for i := 0; i < words; i += pageWords {
		back.Store(base+Addr(i*WordBytes), 1)
	}
	addrs := make([]Addr, 1<<16)
	r := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = base + Addr(r.Intn(words)*WordBytes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back.Store(addrs[i&(len(addrs)-1)], uint64(i))
	}
}

// BenchmarkBackingLoad reads random words over a 32 MB footprint, the
// host-cache-missing case that pays for the page-table indirection.
func BenchmarkBackingLoad(b *testing.B) {
	const words = 32 << 20 / WordBytes
	back := NewBacking(64 << 20)
	base := back.AllocSlice(make([]uint64, words))
	addrs := make([]Addr, 1<<16)
	r := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = base + Addr(r.Intn(words)*WordBytes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWord += back.Load(addrs[i&(len(addrs)-1)])
	}
}
