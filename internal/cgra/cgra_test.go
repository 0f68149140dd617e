package cgra

import (
	"math"
	"testing"
	"testing/quick"

	"fifer/internal/mem"
)

func TestDFGBuilderAndValidate(t *testing.T) {
	g := NewDFG("t")
	a := g.Deq(0)
	b := g.Const(5)
	s := g.Add(OpAdd, 0, a, b)
	g.Enq(0, s)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OpCount() != 4 {
		t.Fatalf("op count = %d, want 4", g.OpCount())
	}
	if g.Depth() != 3 { // deq -> add -> enq
		t.Fatalf("depth = %d, want 3", g.Depth())
	}
}

func TestDFGValidateRejectsForwardRefs(t *testing.T) {
	g := &DFG{Name: "bad", Nodes: []Node{
		{ID: 0, Kind: OpAdd, Args: []NodeID{1, 1}},
		{ID: 1, Kind: OpConst},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("forward reference accepted")
	}
}

func TestDFGAddPanicsOnUndefinedArg(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewDFG("p")
	g.Add(OpAdd, 0, 5, 6)
}

func TestPlaceSIMDReplication(t *testing.T) {
	fabric := DefaultFabric()
	g := NewDFG("small")
	a := g.Deq(0)
	b := g.Const(1)
	g.Enq(0, g.Add(OpAdd, 0, a, b))
	m, err := Place(g, fabric, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas < 2 {
		t.Fatalf("small datapath not replicated: %d", m.Replicas)
	}
	if m.Replicas&(m.Replicas-1) != 0 {
		t.Fatalf("replication %d not a power of two", m.Replicas)
	}
	if m.UnitsUsed > fabric.Units() {
		t.Fatal("placement exceeds fabric")
	}
	single, _ := Place(g, fabric, false)
	if single.Replicas != 1 {
		t.Fatal("replicate=false still replicated")
	}
}

func TestPlaceMemoryPortsLimitReplication(t *testing.T) {
	g := NewDFG("mem")
	a := g.Deq(0)
	v := g.Add(OpLoad, 0, a)
	g.Enq(0, v)
	m, err := Place(g, DefaultFabric(), true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas > 4 {
		t.Fatalf("memory-op datapath replicated %d > port limit", m.Replicas)
	}
}

func TestPlaceFMALimits(t *testing.T) {
	fabric := DefaultFabric() // 4 FMAs
	g := NewDFG("fma")
	a := g.Deq(0)
	b := g.Deq(1)
	c := g.Const(0)
	g.Enq(0, g.Add(OpFMA, 0, a, b, c))
	m, err := Place(g, fabric, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas > fabric.FMAs {
		t.Fatalf("replicas %d exceed FMA units", m.Replicas)
	}
	// A DFG needing more FMAs than exist must fail.
	g2 := NewDFG("fma5")
	x := g2.Deq(0)
	for i := 0; i < fabric.FMAs+1; i++ {
		x = g2.Add(OpFMA, 0, x, x, x)
	}
	if _, err := Place(g2, fabric, false); err == nil {
		t.Fatal("oversubscribed FMA placement accepted")
	}
}

func TestPlaceTooLargeFails(t *testing.T) {
	fabric := DefaultFabric()
	g := NewDFG("big")
	id := g.Const(1)
	for i := 0; i < fabric.Units()+1; i++ {
		id = g.Add(OpAdd, 0, id, id)
	}
	if _, err := Place(g, fabric, false); err == nil {
		t.Fatal("oversized stage placed")
	}
}

// Property: placement never oversubscribes the grid and always charges the
// full-fabric configuration size.
func TestPlaceCapacityProperty(t *testing.T) {
	fabric := DefaultFabric()
	f := func(nops uint8) bool {
		n := int(nops%40) + 1
		g := NewDFG("p")
		id := g.Deq(0)
		for i := 0; i < n; i++ {
			id = g.Add(OpAdd, 0, id, id)
		}
		g.Enq(0, id)
		m, err := Place(g, fabric, true)
		if err != nil {
			return false
		}
		return m.UnitsUsed <= fabric.Units() &&
			m.ConfigBytes == fabric.FullConfigBytes() &&
			m.Replicas >= 1 && m.Depth >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFabricConfigSizes(t *testing.T) {
	f := DefaultFabric()
	if f.Units() != 80 {
		t.Fatalf("units = %d, want 80", f.Units())
	}
	if got := f.FullConfigBytes(); got != 360 {
		t.Fatalf("config bytes = %d, want 360 (paper Sec. 5.1)", got)
	}
	// The PE streams a configuration one cache line per cycle.
	if got := (f.FullConfigBytes() + mem.LineBytes - 1) / mem.LineBytes; got != 6 {
		t.Fatalf("config lines = %d, want 6 (paper: 6 loads at 64 B/cycle)", got)
	}
}

func TestInterpretArithmetic(t *testing.T) {
	g := NewDFG("arith")
	a := g.Const(10)
	b := g.Const(3)
	add := g.Add(OpAdd, 0, a, b)
	sub := g.Add(OpSub, 0, a, b)
	mul := g.Add(OpMul, 0, a, b)
	div := g.Add(OpDiv, 0, a, b)
	div0 := g.Add(OpDiv, 0, a, g.Const(0))
	lt := g.Add(OpCmpLT, 0, b, a)
	eq := g.Add(OpCmpEQ, 0, a, a)
	sel := g.Add(OpSelect, 0, lt, a, b)
	lea := g.Add(OpLEA, 3, a, b)
	vals, err := Interpret(g, InterpEnv{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[NodeID]uint64{add: 13, sub: 7, mul: 30, div: 3, div0: 0, lt: 1, eq: 1, sel: 10, lea: 10 + 3*8}
	for id, w := range want {
		if vals[id] != w {
			t.Fatalf("node %d = %d, want %d", id, vals[id], w)
		}
	}
}

func TestInterpretQueuesAndMemory(t *testing.T) {
	g := NewDFG("qm")
	x := g.Deq(0)
	v := g.Add(OpLoad, 0, x)
	one := g.Const(1)
	g.Add(OpStore, 0, x, g.Add(OpAdd, 0, v, one))
	g.Enq(0, v)

	memory := map[uint64]uint64{64: 9}
	var out []uint64
	vals, err := Interpret(g, InterpEnv{
		DeqFn:   func(int) (uint64, bool) { return 64, true },
		EnqFn:   func(_ int, v uint64) { out = append(out, v) },
		LoadFn:  func(a uint64) uint64 { return memory[a] },
		StoreFn: func(a, v uint64) { memory[a] = v },
	})
	if err != nil {
		t.Fatal(err)
	}
	if memory[64] != 10 || len(out) != 1 || out[0] != 9 {
		t.Fatalf("interp side effects wrong: mem=%v out=%v vals=%v", memory, out, vals)
	}
}

func TestInterpretFMA(t *testing.T) {
	g := NewDFG("fma")
	a := g.Const(math.Float64bits(2.5))
	b := g.Const(math.Float64bits(4.0))
	c := g.Const(math.Float64bits(1.0))
	r := g.Add(OpFMA, 0, a, b, c)
	vals, err := Interpret(g, InterpEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(vals[r]); got != 11.0 {
		t.Fatalf("fma = %g, want 11", got)
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpFMA.String() != "fma" {
		t.Fatal("op names wrong")
	}
	if !OpFMA.IsFMA() || OpAdd.IsFMA() {
		t.Fatal("IsFMA wrong")
	}
	if !OpLoad.IsMemory() || !OpStore.IsMemory() || OpEnq.IsMemory() {
		t.Fatal("IsMemory wrong")
	}
}
