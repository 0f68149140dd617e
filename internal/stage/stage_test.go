package stage

import (
	"testing"

	"fifer/internal/cgra"
	"fifer/internal/mem"
	"fifer/internal/queue"
)

func TestLocalPortRoundTrip(t *testing.T) {
	q := queue.NewQueue("q", 4)
	p := LocalPort{Q: q}
	if p.Len() != 0 || p.Space() != 4 {
		t.Fatal("fresh port state wrong")
	}
	if !p.Push(queue.Data(9)) {
		t.Fatal("push failed")
	}
	if tok, ok := p.Peek(); !ok || tok.Value != 9 {
		t.Fatal("peek wrong")
	}
	if tok, ok := p.Pop(); !ok || tok.Value != 9 {
		t.Fatal("pop wrong")
	}
}

func TestArbiterAndCreditPorts(t *testing.T) {
	q := queue.NewQueue("q", 4)
	arb := queue.NewArbiter(q, 2)
	in := ArbiterPort{A: arb}
	out0 := CreditOut{P: arb.Port(0)}
	if out0.Space() != 2 {
		t.Fatalf("credit space = %d, want 2", out0.Space())
	}
	out0.Push(queue.Data(1))
	out0.Push(queue.Data(2))
	if out0.Space() != 0 || out0.Push(queue.Data(3)) {
		t.Fatal("credits not enforced")
	}
	if tok, ok := in.Pop(); !ok || tok.Value != 1 {
		t.Fatal("arbiter pop wrong")
	}
	if out0.Space() != 1 {
		t.Fatal("credit not returned to sender")
	}
}

func TestStageWorkAndReadiness(t *testing.T) {
	qin := queue.NewQueue("in", 8)
	qout := queue.NewQueue("out", 1)
	extra := 0
	s := &Stage{
		Kernel:    KernelFunc{KernelName: "k", Fn: func(*Ctx) Status { return Fired }},
		In:        []InPort{LocalPort{Q: qin}},
		Out:       []OutPort{LocalPort{Q: qout}},
		StateWork: func() int { return extra },
	}
	if err := s.Bind(); err != nil {
		t.Fatal(err)
	}
	if s.InputWork() != 0 || s.Ready() {
		t.Fatal("empty stage should not be ready")
	}
	qin.Enq(queue.Data(1))
	if s.InputWork() != 1 || !s.Ready() {
		t.Fatal("stage with input should be ready")
	}
	extra = 3
	if s.InputWork() != 4 {
		t.Fatal("StateWork not counted")
	}
	qout.Enq(queue.Data(0)) // fill the 1-slot output
	if !s.OutputsBlocked() || s.Ready() {
		t.Fatal("full output should block readiness")
	}
}

func TestGateThrottlesInputWork(t *testing.T) {
	qin := queue.NewQueue("in", 8)
	qin.Enq(queue.Data(1))
	g := &Gate{Limit: 2}
	released := 0
	g.OnRelease(func() { released++ })
	s := &Stage{
		Kernel: KernelFunc{KernelName: "k"},
		In:     []InPort{LocalPort{Q: qin}},
		Gate:   g,
	}
	if err := s.Bind(); err != nil {
		t.Fatal(err)
	}
	g.Acquire()
	if g.Full() || s.InputWork() != 1 {
		t.Fatal("gate with a free slot hid the input")
	}
	g.Acquire()
	if !g.Full() || g.Held() != 2 || s.InputWork() != 0 || s.Ready() {
		t.Fatal("full gate did not hide the input")
	}
	g.Release()
	if g.Full() || s.InputWork() != 1 || released != 1 {
		t.Fatalf("release: held %d, work %d, hooks run %d", g.Held(), s.InputWork(), released)
	}
}

func TestBindRejectsUnknownPorts(t *testing.T) {
	type wrapped struct{ LocalPort }
	q := queue.NewQueue("q", 4)
	s := &Stage{Kernel: KernelFunc{KernelName: "k"}, In: []InPort{wrapped{LocalPort{Q: q}}}}
	if err := s.Bind(); err == nil {
		t.Fatal("Bind accepted a wrapped in-port")
	}
}

func TestStageWidthAndDepth(t *testing.T) {
	g := cgra.NewDFG("w")
	a := g.Deq(0)
	g.Enq(0, a)
	m, err := cgra.Place(g, cgra.DefaultFabric(), true)
	if err != nil {
		t.Fatal(err)
	}
	s := &Stage{Kernel: KernelFunc{KernelName: "k"}, Mapping: m}
	if s.Width() != m.Replicas || s.Depth() != m.Depth {
		t.Fatal("width/depth not from mapping")
	}
	bare := &Stage{Kernel: KernelFunc{KernelName: "k"}}
	if bare.Width() != 1 || bare.Depth() != 1 {
		t.Fatal("unmapped stage defaults wrong")
	}
}

func TestCtxLoadStoreStallAccounting(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	b := mem.NewBacking(1 << 20)
	port := h.Port(0, b)
	a := b.AllocWords(8)
	b.Store(a, 77)

	c := &Ctx{Now: 0, Mem: port}
	if v := c.Load(a); v != 77 {
		t.Fatalf("load = %d", v)
	}
	if c.ExtraStall == 0 {
		t.Fatal("cold miss produced no extra stall")
	}
	// A warm load at a later time must not add stall beyond the L1 hit.
	c2 := &Ctx{Now: 1000, Mem: port}
	c2.Load(a)
	if c2.ExtraStall != 0 {
		t.Fatalf("warm hit charged %d extra stall", c2.ExtraStall)
	}
	c3 := &Ctx{Now: 2000, Mem: port}
	c3.Store(a, 5)
	if b.Load(a) != 5 {
		t.Fatal("store not applied functionally")
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Fired: "fired", NoInput: "no-input", NoOutput: "no-output", Sleep: "sleep",
	} {
		if st.String() != want {
			t.Fatalf("%d -> %q", st, st.String())
		}
	}
}
