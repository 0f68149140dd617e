package apps

import (
	"testing"
	"testing/quick"

	"fifer/internal/core"
	"fifer/internal/stage"
)

func TestOwnerPartition(t *testing.T) {
	// Every element gets exactly one owner; ranges tile [0, n).
	f := func(nSeed, rSeed uint16) bool {
		n := int(nSeed%5000) + 1
		r := int(rSeed%17) + 1
		counts := make([]int, r)
		for v := 0; v < n; v++ {
			o := Owner(v, n, r)
			if o < 0 || o >= r {
				return false
			}
			lo, hi := OwnedRange(o, n, r)
			if v < lo || v >= hi {
				return false
			}
			counts[o]++
		}
		total := 0
		for s := 0; s < r; s++ {
			lo, hi := OwnedRange(s, n, r)
			if hi < lo {
				return false
			}
			if counts[s] != hi-lo {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceFor(t *testing.T) {
	fifer := core.DefaultConfig()
	p := PlaceFor(fifer, 4)
	if p.Replicas != 16 {
		t.Fatalf("fifer replicas = %d, want 16", p.Replicas)
	}
	for r := 0; r < p.Replicas; r++ {
		for s := 0; s < 4; s++ {
			if p.PEOf(r, s) != r {
				t.Fatal("fifer placement must keep a replica on one PE")
			}
		}
	}
	static := core.StaticConfig()
	ps := PlaceFor(static, 4)
	if ps.Replicas != 4 {
		t.Fatalf("static replicas = %d, want 4", ps.Replicas)
	}
	seen := map[int]bool{}
	for r := 0; r < ps.Replicas; r++ {
		for s := 0; s < 4; s++ {
			pe := ps.PEOf(r, s)
			if seen[pe] {
				t.Fatalf("static placement reuses pe%d", pe)
			}
			seen[pe] = true
		}
	}
}

func TestQueuePlanBudgetsPerPE(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PEs = 3
	cfg.BackingBytes = 1 << 20
	sys := core.NewSystem(cfg)
	qp := NewQueuePlan(sys)
	a := qp.Request(0, "a", 1, nil)
	bq := qp.Request(0, "b", 3, nil)
	c := qp.Request(1, "c", 1, []int{0})
	// The pipelines list a same-PE producer rather than omitting it.
	self := qp.Request(2, "self", 1, []int{2})
	mixed := qp.Request(2, "mixed", 1, []int{2, 0})
	qp.Build()
	// PE 0's 16 KB (2048 tokens) split 1:3.
	if a.Queue().Cap() != 512 || bq.Queue().Cap() != 1536 {
		t.Fatalf("split = %d/%d, want 512/1536", a.Queue().Cap(), bq.Queue().Cap())
	}
	// PE 1 hosts only c: full budget, credited (cross-PE producer).
	if c.Queue().Cap() != 2048 {
		t.Fatalf("c cap = %d, want 2048", c.Queue().Cap())
	}
	if c.Out(0).Space() != 2048 {
		t.Fatal("credited producer should start with full credits")
	}
	// A queue whose only producer is its consumer's PE is a plain local
	// queue: its producer port and its local port are the same port.
	if self.In() != stage.LocalIn(self.Queue()) || self.Out(0) != self.Local() || self.Local() != stage.LocalOut(self.Queue()) {
		t.Fatalf("same-PE producer: in %v, out %v, local %v; want one local queue", self.In(), self.Out(0), self.Local())
	}
	if self.Queue().Cap() != 1024 {
		t.Fatalf("self cap = %d, want 1024", self.Queue().Cap())
	}
	// One remote producer among two makes the queue credited, one port
	// per listed producer, the local one included.
	if mixed.arb == nil || mixed.In() != stage.CreditedIn(mixed.arb) {
		t.Fatalf("mixed producers: in %v, want a credited arbiter", mixed.In())
	}
	for i := 0; i < 2; i++ {
		if o := mixed.Out(i); o != stage.CreditOut(mixed.arb.Port(i)) || o.Space() != 512 {
			t.Fatalf("mixed port %d: %v with space %d, want a credit port with 512", i, o, o.Space())
		}
	}
}

func TestSystemKindStrings(t *testing.T) {
	want := map[SystemKind]string{
		SerialOOO: "serial-ooo", MulticoreOOO: "4-core-ooo",
		StaticPipe: "static-16pe", FiferPipe: "fifer-16pe",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}
