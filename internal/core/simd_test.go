package core

import (
	"strings"
	"testing"

	"fifer/internal/cgra"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// wideDFG maps to multiple replicated datapaths.
func wideDFG(name string) *cgra.Mapping {
	g := cgra.NewDFG(name)
	v := g.Deq(0)
	g.Enq(0, v)
	m, err := cgra.Place(g, DefaultConfig().Fabric, true)
	if err != nil {
		panic(err)
	}
	return m
}

func TestSIMDGroupsFiringsPerCycle(t *testing.T) {
	run := func(replicate bool) uint64 {
		cfg := testConfig(1)
		cfg.SIMDReplication = replicate
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		q := pe.AllocQueue("q", 512)
		got := 0
		s := sinkStage("sink", stage.LocalPort{Q: q}, &got)
		if replicate {
			s.Mapping = wideDFG("sink")
		}
		pe.AddStage(s)
		for i := 0; i < 400; i++ {
			q.Enq(queue.Data(uint64(i)))
		}
		if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err != nil {
			t.Fatal(err)
		}
		if got != 400 {
			t.Fatalf("consumed %d, want 400", got)
		}
		return sys.Cycle
	}
	wide := run(true)
	narrow := run(false)
	if wide*2 >= narrow {
		t.Fatalf("SIMD replication did not speed up draining: %d vs %d cycles", wide, narrow)
	}
}

func TestControlValuesHandledSerially(t *testing.T) {
	// A width-W stage consuming data tokens drains W per cycle, but control
	// tokens break the group (Sec. 5.6).
	run := func(ctrlEvery int) uint64 {
		sys := NewSystem(testConfig(1))
		pe := sys.PE(0)
		q := pe.AllocQueue("q", 512)
		got := 0
		s := &stage.Stage{
			Kernel: stage.KernelFunc{KernelName: "sink", Fn: func(c *stage.Ctx) stage.Status {
				tok, ok := c.In[0].Pop()
				if !ok {
					return stage.NoInput
				}
				if tok.Ctrl {
					c.FiredCtrl = true
				}
				got++
				return stage.Fired
			}},
			Mapping: wideDFG("sink"),
			In:      []stage.InPort{stage.LocalPort{Q: q}},
		}
		pe.AddStage(s)
		for i := 0; i < 400; i++ {
			if ctrlEvery > 0 && i%ctrlEvery == 0 {
				q.Enq(queue.Ctrl(uint64(i)))
			} else {
				q.Enq(queue.Data(uint64(i)))
			}
		}
		if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err != nil {
			t.Fatal(err)
		}
		return sys.Cycle
	}
	dataOnly := run(0)
	ctrlHeavy := run(2)
	if ctrlHeavy <= dataOnly {
		t.Fatalf("control tokens did not serialize: %d vs %d cycles", ctrlHeavy, dataOnly)
	}
}

func TestSchedulerCooldownBreaksPingPong(t *testing.T) {
	// Two stages whose outputs are mutually full, plus a third that drains
	// them: without cooldown the most-work policy ping-pongs between the
	// first two forever (the PRD livelock); with it, the system completes.
	cfg := testConfig(1)
	cfg.MaxCycles = 2_000_000
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	qa := pe.AllocQueue("qa", 128)
	qb := pe.AllocQueue("qb", 8)
	got := 0
	// Stage A: forwards qa -> qb (big backlog on qa, tiny qb).
	pe.AddStage(passStage("a", stage.LocalPort{Q: qa}, stage.LocalPort{Q: qb}))
	// Stage B: drains qb.
	pe.AddStage(sinkStage("b", stage.LocalPort{Q: qb}, &got))
	for i := 0; i < 128; i++ {
		qa.Enq(queue.Data(uint64(i)))
	}
	if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err != nil {
		t.Fatal(err)
	}
	if got != 128 {
		t.Fatalf("drained %d, want 128", got)
	}
}

func TestDumpRendersState(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	q := pe.AllocQueue("q", 8)
	got := 0
	pe.AddStage(sinkStage("sink", stage.LocalPort{Q: q}, &got))
	q.Enq(queue.Data(1))
	out := sys.Dump()
	if !strings.Contains(out, "pe0") || !strings.Contains(out, "sink") {
		t.Fatalf("dump missing content:\n%s", out)
	}
}
