package ooo

import (
	"testing"

	"fifer/internal/mem"
)

// stream drives n independent loads with stride through a core.
func stream(c *Core, base mem.Addr, n int, stride int) {
	for i := 0; i < n; i++ {
		c.Load(base+mem.Addr(i*stride), 0)
		c.Op(2)
	}
}

func TestMulticoreScalesOnIndependentWork(t *testing.T) {
	work := 1 << 16
	m1 := NewMachine(1, 64<<20, 1)
	base1 := m1.Backing.Alloc(work * 64)
	stream(m1.Cores[0], base1, work, 64)
	serial := m1.Cycles()

	m4 := NewMachine(4, 64<<20, 1)
	for i, c := range m4.Cores {
		base := m4.Backing.Alloc(work / 4 * 64)
		_ = i
		stream(c, base, work/4, 64)
	}
	par := m4.Cycles()
	if par*2 >= serial {
		t.Fatalf("4-core %d cycles not at least 2x faster than 1-core %d", par, serial)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	m := NewMachine(1, 64<<20, 1)
	c := m.Cores[0]
	base := m.Backing.Alloc(1 << 20)
	// Independent misses overlap.
	for i := 0; i < 256; i++ {
		c.Load(base+mem.Addr(i*4096), 0)
	}
	indep := m.Cycles()

	m2 := NewMachine(1, 64<<20, 1)
	c2 := m2.Cores[0]
	base2 := m2.Backing.Alloc(1 << 20)
	dep := Dep(0)
	for i := 0; i < 256; i++ {
		dep = c2.Load(base2+mem.Addr(i*4096), dep)
	}
	chained := m2.Cycles()
	if chained < indep*2 {
		t.Fatalf("dependent chain (%d cycles) should be much slower than independent loads (%d)", chained, indep)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// A tiny ROB should hurt independent-miss throughput.
	big := DefaultConfig()
	small := DefaultConfig()
	small.ROB = 16
	run := func(cfg Config) uint64 {
		h := mem.NewHierarchy(mem.DefaultCoreHierarchy(1))
		b := mem.NewBacking(64 << 20)
		c := NewCore(cfg, h.Port(0, b))
		base := b.Alloc(16 << 20)
		for i := 0; i < 4096; i++ {
			c.Load(base+mem.Addr(i*4096), 0)
			c.Op(4)
		}
		return c.Cycle()
	}
	if run(small) <= run(big) {
		t.Fatal("smaller ROB should not be faster")
	}
}

func TestBranchMispredictsCost(t *testing.T) {
	run := func(pattern func(i int) bool) uint64 {
		m := NewMachine(1, 1<<20, 1)
		c := m.Cores[0]
		for i := 0; i < 4096; i++ {
			c.Op(1)
			c.Branch(1, pattern(i), Dep(c.Cycle()+20))
		}
		return m.Cycles()
	}
	predictable := run(func(int) bool { return true })
	random := run(func(i int) bool { return i*2654435761%97 < 48 })
	if random <= predictable {
		t.Fatal("unpredictable branches should cost more than predictable ones")
	}
}

func TestBarrierAndSummarize(t *testing.T) {
	m := NewMachine(2, 1<<20, 1)
	m.Cores[0].Op(600)
	m.Cores[1].Op(60)
	c0 := m.Cores[0].Cycle()
	if got := m.Barrier(); got != c0 {
		t.Fatalf("barrier = %d, want max %d", got, c0)
	}
	if m.Cores[1].Cycle() != c0 {
		t.Fatal("lagging core not advanced")
	}
	if i0, i1 := m.Cores[0].Instrs, m.Cores[1].Instrs; i0+i1 != 660 || m.Cycles() != c0 {
		t.Fatalf("instrs %d+%d, cycles %d; want 660 instrs, cycles %d", i0, i1, m.Cycles(), c0)
	}
}

func TestStoreValueFunctional(t *testing.T) {
	m := NewMachine(1, 1<<20, 1)
	a := m.Backing.AllocWords(1)
	m.Cores[0].StoreValue(a, 99)
	if m.Backing.Load(a) != 99 {
		t.Fatal("store value not applied")
	}
}

func TestLLCDivMachine(t *testing.T) {
	m := NewMachine(1, 1<<20, 4)
	if m.Hier.Config.LLCBytes != (2<<20)/4 {
		t.Fatalf("LLC = %d", m.Hier.Config.LLCBytes)
	}
}

// BenchmarkCoreDispatch times the dispatch loop: 64 ALU ops and one load
// per iteration, the load walking a 4 MB array so ROB and MSHR rings both
// turn over.
func BenchmarkCoreDispatch(b *testing.B) {
	m := NewMachine(1, 64<<20, 1)
	c := m.Cores[0]
	const lines = 4 << 20 / 64
	base := m.Backing.Alloc(lines * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Op(64)
		c.Load(base+mem.Addr(i%lines*64), 0)
	}
}
