package core

import (
	"testing"

	"fifer/internal/cgra"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

func testConfig(pes int) Config {
	cfg := DefaultConfig()
	cfg.PEs = pes
	cfg.BackingBytes = 16 << 20
	cfg.MaxCycles = 5_000_000
	return cfg
}

// passDFG is a minimal mapped datapath for synthetic stages.
func passDFG(name string) *cgra.Mapping {
	g := cgra.NewDFG(name)
	v := g.Deq(0)
	g.Enq(0, v)
	m, err := cgra.Place(g, DefaultConfig().Fabric, false)
	if err != nil {
		panic(err)
	}
	return m
}

// passStage forwards tokens from in to out, n tokens max per firing = 1.
func passStage(name string, in stage.In, out stage.Out) *stage.Stage {
	return &stage.Stage{
		Name: name,
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if c.Out[0].Space() < 1 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			c.Out[0].Push(t)
			return stage.Fired
		},
		Mapping: passDFG(name),
		In:      []stage.In{in},
		Out:     []stage.Out{out},
	}
}

// sinkStage drains tokens and counts them.
func sinkStage(name string, in stage.In, count *int) *stage.Stage {
	return &stage.Stage{
		Name: name,
		Fire: func(c *stage.Ctx) stage.Status {
			if _, ok := c.In[0].Pop(); !ok {
				return stage.NoInput
			}
			*count++
			return stage.Fired
		},
		Mapping: passDFG(name),
		In:      []stage.In{in},
	}
}

func TestTemporalPipelineForwardsAllTokens(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	q1 := pe.AllocQueue("q1", 64)
	q2 := pe.AllocQueue("q2", 64)
	got := 0
	pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
	pe.AddStage(sinkStage("sink", stage.LocalIn(q2), &got))
	rounds := 0
	refill := func() {
		for j := 0; j < 50; j++ {
			q1.Enq(queue.Data(uint64(rounds*50 + j)))
		}
	}
	refill()
	res, err := sys.Run(ProgramFunc(func(*System) bool {
		rounds++
		if rounds >= 10 {
			return false
		}
		refill()
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("sink got %d tokens, want 500", got)
	}
	if res.Reconfigs == 0 {
		t.Fatal("temporal pipeline never reconfigured")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticModeRejectsSecondStage(t *testing.T) {
	cfg := testConfig(1)
	cfg.Mode = ModeStatic
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	q := pe.AllocQueue("q", 16)
	got := 0
	pe.AddStage(sinkStage("a", stage.LocalIn(q), &got))
	defer func() {
		if recover() == nil {
			t.Fatal("second stage on a static PE accepted")
		}
	}()
	pe.AddStage(sinkStage("b", stage.LocalIn(q), &got))
}

func TestCPIStackSumsToCycles(t *testing.T) {
	sys := NewSystem(testConfig(2))
	q := sys.PE(0).AllocQueue("q", 32)
	got := 0
	sys.PE(0).AddStage(sinkStage("sink", stage.LocalIn(q), &got))
	for i := 0; i < 20; i++ {
		q.Enq(queue.Data(uint64(i)))
	}
	if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err != nil {
		t.Fatal(err)
	}
	for _, pe := range sys.PEs {
		if pe.Stack.Total() != sys.Cycle {
			t.Fatalf("pe%d stack %d != cycles %d", pe.ID, pe.Stack.Total(), sys.Cycle)
		}
	}
}

func TestMostWorkPolicyPrefersDeeperQueue(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	qa := pe.AllocQueue("qa", 64)
	qb := pe.AllocQueue("qb", 64)
	gotA, gotB := 0, 0
	pe.AddStage(sinkStage("a", stage.LocalIn(qa), &gotA))
	pe.AddStage(sinkStage("b", stage.LocalIn(qb), &gotB))
	qa.Enq(queue.Data(1))
	for i := 0; i < 40; i++ {
		qb.Enq(queue.Data(uint64(i)))
	}
	// First activation must pick b (more work).
	pe.Tick(0)
	if act := pe.ActiveStage(); act == nil || act.Name != "b" {
		t.Fatalf("scheduler picked %v, want b", pe.ActiveStage())
	}
}

func TestReconfigurationTiming(t *testing.T) {
	// Switching between two stages must cost at least the 12-cycle minimum
	// (10-cycle load + 2-cycle activation) per Sec. 6.
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	qa := pe.AllocQueue("qa", 64)
	qb := pe.AllocQueue("qb", 64)
	gotA, gotB := 0, 0
	pe.AddStage(sinkStage("a", stage.LocalIn(qa), &gotA))
	pe.AddStage(sinkStage("b", stage.LocalIn(qb), &gotB))
	for i := 0; i < 8; i++ {
		qa.Enq(queue.Data(0))
		qb.Enq(queue.Data(0))
	}
	res, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	if err != nil {
		t.Fatal(err)
	}
	if pe.Reconfigs == 0 {
		t.Fatal("no reconfigurations")
	}
	if mean := res.MeanReconfig; mean < 12 {
		t.Fatalf("mean reconfig period %.1f < 12-cycle minimum", mean)
	}
}

func TestZeroCostReconfigIsFree(t *testing.T) {
	run := func(zero bool) uint64 {
		cfg := testConfig(1)
		cfg.ZeroCostReconfig = zero
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		qa := pe.AllocQueue("qa", 4)
		qb := pe.AllocQueue("qb", 4)
		gotA, gotB := 0, 0
		pe.AddStage(sinkStage("a", stage.LocalIn(qa), &gotA))
		pe.AddStage(sinkStage("b", stage.LocalIn(qb), &gotB))
		// Alternate single tokens to force constant switching.
		prog := 0
		_, err := sys.Run(ProgramFunc(func(s *System) bool {
			prog++
			if prog > 32 {
				return false
			}
			qa.Enq(queue.Data(0))
			qb.Enq(queue.Data(0))
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Cycle
	}
	costly := run(false)
	free := run(true)
	if free >= costly {
		t.Fatalf("zero-cost reconfig (%d cycles) not faster than costly (%d)", free, costly)
	}
}

func TestDoubleBufferingOverlapsDrainAndLoad(t *testing.T) {
	// With deep pipelines (large drain), double buffering should hide the
	// config load; without it, drain and load serialize.
	deepDFG := func(name string) *cgra.Mapping {
		g := cgra.NewDFG(name)
		id := g.Deq(0)
		for i := 0; i < 20; i++ {
			id = g.Add(cgra.OpAdd, 0, id, id)
		}
		g.Enq(0, id)
		m, err := cgra.Place(g, DefaultConfig().Fabric, false)
		if err != nil {
			panic(err)
		}
		return m
	}
	run := func(double bool) float64 {
		cfg := testConfig(1)
		cfg.DoubleBuffered = double
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		qa := pe.AllocQueue("qa", 8)
		qb := pe.AllocQueue("qb", 8)
		gotA, gotB := 0, 0
		sa := sinkStage("a", stage.LocalIn(qa), &gotA)
		sa.Mapping = deepDFG("a")
		sb := sinkStage("b", stage.LocalIn(qb), &gotB)
		sb.Mapping = deepDFG("b")
		pe.AddStage(sa)
		pe.AddStage(sb)
		prog := 0
		res, err := sys.Run(ProgramFunc(func(*System) bool {
			prog++
			if prog > 16 {
				return false
			}
			qa.Enq(queue.Data(0))
			qb.Enq(queue.Data(0))
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanReconfig
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("double buffering did not shorten reconfig: %.1f vs %.1f", with, without)
	}
}

func TestDRMDereference(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	b := sys.Backing
	arr := b.AllocSlice([]uint64{10, 20, 30})
	out := pe.AllocQueue("out", 16)
	d := pe.DRM(0)
	d.Configure(DRMDereference, stage.LocalOut(out))
	for i := 0; i < 3; i++ {
		d.In().Enq(queue.Data(uint64(arr) + uint64(i*mem.WordBytes)))
	}
	for now := uint64(0); now < 2000 && out.Len() < 3; now++ {
		d.Tick(now)
	}
	for i, want := range []uint64{10, 20, 30} {
		tok, ok := out.Deq()
		if !ok || tok.Value != want {
			t.Fatalf("deref %d: got %v %v, want %d (in-order completion)", i, tok, ok, want)
		}
	}
}

func TestDRMScanWithBoundary(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	arr := sys.Backing.AllocSlice([]uint64{7, 8})
	out := pe.AllocQueue("out", 16)
	d := pe.DRM(0)
	d.Configure(DRMScan, stage.LocalOut(out))
	d.SetBoundary(true)
	d.In().Enq(queue.Data(uint64(arr)))
	d.In().Enq(queue.Data(uint64(arr) + 16))
	// Empty range still emits its boundary.
	d.In().Enq(queue.Data(uint64(arr)))
	d.In().Enq(queue.Data(uint64(arr)))
	for now := uint64(0); now < 2000 && out.Len() < 4; now++ {
		d.Tick(now)
	}
	want := []queue.Token{queue.Data(7), queue.Data(8), queue.Ctrl(0), queue.Ctrl(0)}
	for i, w := range want {
		tok, ok := out.Deq()
		if !ok || tok != w {
			t.Fatalf("scan token %d: got %v %v, want %v", i, tok, ok, w)
		}
	}
	if d.Busy() {
		t.Fatal("DRM still busy after drain")
	}
}

func TestDRMCtrlPassThrough(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	arr := sys.Backing.AllocSlice([]uint64{5})
	out := pe.AllocQueue("out", 16)
	d := pe.DRM(0)
	d.Configure(DRMDereference, stage.LocalOut(out))
	d.In().Enq(queue.Data(uint64(arr)))
	d.In().Enq(queue.Ctrl(99))
	for now := uint64(0); now < 2000 && out.Len() < 2; now++ {
		d.Tick(now)
	}
	first, _ := out.Deq()
	second, _ := out.Deq()
	if first.Ctrl || first.Value != 5 || !second.Ctrl || second.Value != 99 {
		t.Fatalf("ctrl ordering broken: %v %v", first, second)
	}
}

// TestDRMDelaySaturates stalls a DRM holding a data and a control entry by
// the largest delay, twice: ready cycles stop at maxReady, the control flag
// in bit 63 survives, and a response issued afterwards saturates too.
func TestDRMDelaySaturates(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	arr := sys.Backing.AllocSlice([]uint64{5})
	d := pe.DRM(0)
	d.Configure(DRMDereference, stage.LocalOut(pe.AllocQueue("out", 16)))
	d.In().Enq(queue.Data(uint64(arr)))
	d.In().Enq(queue.Ctrl(99))
	d.Tick(0)
	d.Tick(1)
	if n := d.FaultDelayResponses(^uint64(0)); n != 2 {
		t.Fatalf("delayed %d entries, want 2", n)
	}
	d.FaultDelayResponses(maxReady)
	d.In().Enq(queue.Data(uint64(arr)))
	d.Tick(2)
	want := []queue.Token{queue.Data(5), queue.Ctrl(99), queue.Data(5)}
	if d.inflight.Len() != len(want) {
		t.Fatalf("%d entries in flight, want %d", d.inflight.Len(), len(want))
	}
	for i, w := range want {
		e := d.inflight.at(i)
		if e.readyAt() != maxReady || e.token() != w {
			t.Fatalf("entry %d: ready %#x token %+v, want ready %#x token %+v", i, e.readyAt(), e.token(), uint64(maxReady), w)
		}
	}
	if d.Tick(maxReady - 1); d.Emitted != 0 || d.wake != maxReady {
		t.Fatalf("emitted %d, wake %#x before the saturated ready cycle", d.Emitted, d.wake)
	}
}

func TestRunDetectsDeadlockViaMaxCycles(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxCycles = 1000
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	q := pe.AllocQueue("q", 4)
	q.Enq(queue.Data(1))
	// A stage that is never able to fire but holds state-work forever.
	pe.AddStage(&stage.Stage{
		Name: "stuck",
		Fire: func(*stage.Ctx) stage.Status {
			return stage.NoOutput
		},
		Mapping:   passDFG("stuck"),
		In:        []stage.In{stage.LocalIn(q)},
		StateWork: func() int { return 1 },
	})
	if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err == nil {
		t.Fatal("deadlocked run completed")
	}
}

func TestCouplesLoadStallsFabric(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	b := sys.Backing
	// A large array so every strided load misses.
	arr := b.AllocWords(1 << 16)
	q := pe.AllocQueue("q", 64)
	n := 0
	pe.AddStage(&stage.Stage{
		Name: "loads",
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Pop()
			if !ok {
				return stage.NoInput
			}
			c.Load(arr + mem.Addr(t.Value*4096))
			n++
			return stage.Fired
		},
		Mapping: passDFG("loads"),
		In:      []stage.In{stage.LocalIn(q)},
	})
	for i := 0; i < 32; i++ {
		q.Enq(queue.Data(uint64(i)))
	}
	if _, err := sys.Run(ProgramFunc(func(*System) bool { return false })); err != nil {
		t.Fatal(err)
	}
	if pe.Stack.Stall == 0 {
		t.Fatal("cold misses produced no fabric stalls")
	}
	if n != 32 {
		t.Fatalf("fired %d, want 32", n)
	}
}

func TestResidenceStats(t *testing.T) {
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	qa := pe.AllocQueue("qa", 64)
	qb := pe.AllocQueue("qb", 64)
	gotA, gotB := 0, 0
	pe.AddStage(sinkStage("a", stage.LocalIn(qa), &gotA))
	pe.AddStage(sinkStage("b", stage.LocalIn(qb), &gotB))
	for i := 0; i < 30; i++ {
		qa.Enq(queue.Data(0))
		qb.Enq(queue.Data(0))
	}
	res, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResidence <= res.MeanReconfig {
		t.Fatalf("residence %.1f should exceed reconfig period %.1f (residence includes it)",
			res.MeanResidence, res.MeanReconfig)
	}
}
