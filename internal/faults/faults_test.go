package faults_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/faults"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

func testConfig(pes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.PEs = pes
	cfg.BackingBytes = 16 << 20
	cfg.MaxCycles = 5_000_000
	cfg.WatchdogCycles = 2000
	cfg.AuditCycles = 64
	return cfg
}

// passDFG is a minimal mapped datapath for synthetic stages.
func passDFG(name string) *cgra.Mapping {
	g := cgra.NewDFG(name)
	g.Enq(0, g.Deq(0))
	m, err := cgra.Place(g, core.DefaultConfig().Fabric, false)
	if err != nil {
		panic(err)
	}
	return m
}

// passStage forwards one token per firing from in to out.
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

// sinkStage drains its input.
func sinkStage(name string, in stage.In) *stage.Stage {
	return &stage.Stage{
		Name: name,
		Fire: func(c *stage.Ctx) stage.Status {
			if _, ok := c.In[0].Pop(); !ok {
				return stage.NoInput
			}
			return stage.Fired
		},
		Mapping: passDFG(name),
		In:      []stage.In{in},
	}
}

// fwdSinkSystem is the shared two-stage single-PE pipeline: fwd moves tokens
// q1 -> q2, sink drains q2, and q1 starts with enough tokens that the run
// outlives every injection trigger used in these tests.
func fwdSinkSystem(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	sys := core.NewSystem(cfg)
	pe := sys.PE(0)
	q1 := pe.AllocQueue("q1", 512)
	q2 := pe.AllocQueue("q2", 16)
	pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
	pe.AddStage(sinkStage("sink", stage.LocalIn(q2)))
	for i := 0; i < 400; i++ {
		q1.Enq(queue.Data(uint64(i)))
	}
	return sys
}

// runToFailure runs sys and returns the *core.StopError it stops with,
// failing the test unless its Reason is reason.
func runToFailure(t *testing.T, sys *core.System, reason error) *core.StopError {
	t.Helper()
	_, err := sys.Run(core.ProgramFunc(func(*core.System) bool { return false }))
	var se *core.StopError
	if !errors.As(err, &se) || se.Reason != reason {
		t.Fatalf("err = %v, want a *core.StopError for %v", err, reason)
	}
	return se
}

// TestStuckStageTripsWatchdog hangs the fwd stage mid-run and checks the
// watchdog converts the resulting global stall into ErrDeadlock whose
// wait-for summary names the stuck stage, within one window of the trigger.
func TestStuckStageTripsWatchdog(t *testing.T) {
	cfg := testConfig(1)
	sys := fwdSinkSystem(t, cfg)

	const at = 200
	plan := faults.NewPlan(1)
	plan.Add(faults.StuckStage{PE: 0, Stage: 0, At: at})
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}

	se := runToFailure(t, sys, core.ErrDeadlock)
	// Everything after the sink drains q2 is dead time; the watchdog must
	// notice within ~2 windows of the trigger, not at MaxCycles.
	if sys.Cycle > at+3*cfg.WatchdogCycles {
		t.Fatalf("detected at cycle %d, want within a few windows of trigger %d", sys.Cycle, at)
	}
	var culprit bool
	for _, e := range se.WaitFor {
		if strings.Contains(e.Waiter, "fwd") {
			culprit = true
		}
	}
	if !culprit {
		t.Fatalf("wait-for summary %v does not name the stuck stage fwd", se.WaitFor)
	}
}

// TestWithheldCreditsTripsAudit steals credits from a producer port and
// checks the live audit reports the credit-conservation violation, naming
// the affected queue.
func TestWithheldCreditsTripsAudit(t *testing.T) {
	cfg := testConfig(2)
	sys := core.NewSystem(cfg)
	src := sys.PE(0).AllocQueue("src", 512)
	for i := 0; i < 500; i++ {
		src.Enq(queue.Data(uint64(i)))
	}
	xq := sys.InterPEQueue(1, "xq", 8, 1)
	sys.PE(0).AddStage(passStage("send", stage.LocalIn(src), stage.CreditOut(xq.Port(0))))
	sys.PE(1).AddStage(sinkStage("recv", stage.CreditedIn(xq)))

	plan := faults.NewPlan(2)
	plan.Add(faults.WithheldCredits{Arbiter: 0, Port: 0, N: 2, At: 100})
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}

	err := runToFailure(t, sys, core.ErrInvariant)
	for _, want := range []string{"credit-conservation", "xq"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("audit error lacks %q: %v", want, err)
		}
	}
	if sys.Cycle > 100+2*cfg.AuditCycles {
		t.Fatalf("audit fired at cycle %d, want within two periods of trigger 100", sys.Cycle)
	}
}

// TestDroppedGrantTripsAudit drops a buffered credited token and checks the
// audit flags the credited-senders/buffered-tokens mismatch.
func TestDroppedGrantTripsAudit(t *testing.T) {
	cfg := testConfig(2)
	sys := core.NewSystem(cfg)
	src := sys.PE(0).AllocQueue("src", 64)
	for i := 0; i < 50; i++ {
		src.Enq(queue.Data(uint64(i)))
	}
	// No consumer on pe1: the 4-slot queue fills with credited tokens, so the
	// injector finds its unambiguous all-credited state quickly.
	xq := sys.InterPEQueue(1, "xq", 4, 1)
	sys.PE(0).AddStage(passStage("send", stage.LocalIn(src), stage.CreditOut(xq.Port(0))))

	plan := faults.NewPlan(3)
	plan.Add(faults.DroppedGrant{Arbiter: 0, At: 50})
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}

	err := runToFailure(t, sys, core.ErrInvariant)
	for _, want := range []string{"credit-conservation", "dropped grant", "xq"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("audit error lacks %q: %v", want, err)
		}
	}
}

// TestDelayedReconfigTripsWatchdog stretches a reconfiguration far past the
// watchdog window and checks the deadlock report blames reconfiguration.
func TestDelayedReconfigTripsWatchdog(t *testing.T) {
	cfg := testConfig(1)
	sys := fwdSinkSystem(t, cfg)

	plan := faults.NewPlan(4)
	plan.Add(faults.DelayedReconfig{PE: 0, Extra: 100_000, At: 1})
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}

	se := runToFailure(t, sys, core.ErrDeadlock)
	var blamed bool
	for _, e := range se.WaitFor {
		if e.WaitsOn == "reconfiguration" {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("wait-for summary %v does not blame reconfiguration", se.WaitFor)
	}
	// The freeze lasts 100k cycles; detection must come from the watchdog
	// window, not from waiting the freeze out.
	if sys.Cycle > 3*cfg.WatchdogCycles+1000 {
		t.Fatalf("detected at cycle %d, want within a few watchdog windows", sys.Cycle)
	}
}

// TestStalledDRMTripsWatchdog freezes a DRM's memory responses mid-run and
// checks the watchdog converts the starvation into ErrDeadlock whose
// wait-for summary names the starved DRM (waiting on memory) and the
// feeder stage backed up behind its address queue.
func TestStalledDRMTripsWatchdog(t *testing.T) {
	cfg := testConfig(1)
	sys := core.NewSystem(cfg)
	pe := sys.PE(0)
	arr := make([]uint64, 256)
	for i := range arr {
		arr[i] = uint64(i)
	}
	base := sys.Backing.AllocSlice(arr)
	addrs := pe.AllocQueue("addrs", 512)
	vals := pe.AllocQueue("vals", 16)
	d := pe.DRM(0)
	d.Configure(core.DRMDereference, stage.LocalOut(vals))
	pe.AddStage(passStage("feed", stage.LocalIn(addrs), d.Feed()))
	pe.AddStage(sinkStage("sink", stage.LocalIn(vals)))
	for i := range arr {
		addrs.Enq(queue.Data(uint64(base) + uint64(i*mem.WordBytes)))
	}

	const at = 100
	plan := faults.NewPlan(5)
	plan.Add(faults.StalledDRM{PE: 0, DRM: 0, Extra: 10_000_000, At: at})
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}

	se := runToFailure(t, sys, core.ErrDeadlock)
	var starved, backedUp bool
	for _, e := range se.WaitFor {
		if strings.Contains(e.Waiter, "drm0") && e.WaitsOn == "memory" {
			starved = true
		}
		if strings.Contains(e.Waiter, "feed") {
			backedUp = true
		}
	}
	if !starved {
		t.Fatalf("wait-for summary %v does not show the DRM starved on memory", se.WaitFor)
	}
	if !backedUp {
		t.Fatalf("wait-for summary %v does not show the feeder backed up", se.WaitFor)
	}
	// The responses are stalled for 10M cycles; detection must come from
	// the watchdog window, not from waiting the stall out.
	if sys.Cycle > at+3*cfg.WatchdogCycles+1000 {
		t.Fatalf("detected at cycle %d, want within a few windows of trigger %d", sys.Cycle, at)
	}
}

// TestPlanDeterminism runs the same seeded fault plan against two identical
// systems and checks the failure reproduces bit-identically: same detection
// cycle, same error text.
func TestPlanDeterminism(t *testing.T) {
	run := func() (uint64, string) {
		cfg := testConfig(1)
		sys := fwdSinkSystem(t, cfg)
		plan := faults.NewPlan(99)
		at := plan.TriggerBetween(100, 300)
		plan.Add(faults.StuckStage{PE: 0, Stage: 0, At: at})
		if err := plan.Arm(sys); err != nil {
			t.Fatal(err)
		}
		msg := runToFailure(t, sys, core.ErrDeadlock).Error()
		return sys.Cycle, msg
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Fatalf("same seed diverged:\n cycle %d vs %d\n err %q\n vs %q", c1, c2, e1, e2)
	}

	p1, p2 := faults.NewPlan(7), faults.NewPlan(7)
	for i := 0; i < 10; i++ {
		if a, b := p1.TriggerBetween(0, 1<<30), p2.TriggerBetween(0, 1<<30); a != b {
			t.Fatalf("TriggerBetween draw %d diverged: %d vs %d", i, a, b)
		}
	}
}

// TestArmRejectsBadTargets checks arming fails loudly, naming the injector.
func TestArmRejectsBadTargets(t *testing.T) {
	sys := fwdSinkSystem(t, testConfig(1))
	for _, inj := range []faults.Injector{
		faults.StuckStage{PE: 5, Stage: 0},
		faults.StuckStage{PE: 0, Stage: 9},
		faults.WithheldCredits{Arbiter: 0, N: 1},
		faults.DroppedGrant{Arbiter: 2},
		faults.DelayedReconfig{PE: -1},
		faults.StalledDRM{PE: 3, DRM: 0, Extra: 1},
		faults.StalledDRM{PE: 0, DRM: 9, Extra: 1},
		faults.StalledDRM{PE: 0, DRM: 0, Extra: 0},
	} {
		err := faults.NewPlan(0).Add(inj).Arm(sys)
		if err == nil {
			t.Errorf("%s: armed against an invalid target", inj.Name())
			continue
		}
		if !strings.Contains(err.Error(), inj.Name()) {
			t.Errorf("arm error does not name the injector: %v", err)
		}
	}
}

// TestShardedDetectorParity pins the failure half of the kernel
// equivalence contract (DESIGN.md §10): every fault detector must fire
// under the default kernel exactly as under the Config.NoFastForward oracle
// — the same detection cycle and a deeply equal *core.StopError (reason,
// cycle, detail, wait-for edges, dump). Each scenario is one of the
// armed-fault suites above, rebuilt on a 4-PE system. Every fault acts from
// an OnCycle hook, which forces the default kernel to settle and tick every
// PE from the first cycle, as the oracle does. The name is kept from the
// multi-shard kernel this first compared; its per-PE parking is now part of
// the one kernel.
func TestShardedDetectorParity(t *testing.T) {
	scenarios := []struct {
		name   string
		build  func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan)
		reason error
	}{
		{
			name: "stuck-stage-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := fwdSinkSystem(t, cfg)
				plan := faults.NewPlan(1)
				plan.Add(faults.StuckStage{PE: 0, Stage: 0, At: 200})
				return sys, plan
			},
			reason: core.ErrDeadlock,
		},
		{
			name: "withheld-credits-audit",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				src := sys.PE(0).AllocQueue("src", 512)
				for i := 0; i < 500; i++ {
					src.Enq(queue.Data(uint64(i)))
				}
				xq := sys.InterPEQueue(3, "xq", 8, 1)
				sys.PE(0).AddStage(passStage("send", stage.LocalIn(src), stage.CreditOut(xq.Port(0))))
				sys.PE(3).AddStage(sinkStage("recv", stage.CreditedIn(xq)))
				plan := faults.NewPlan(2)
				plan.Add(faults.WithheldCredits{Arbiter: 0, Port: 0, N: 2, At: 100})
				return sys, plan
			},
			reason: core.ErrInvariant,
		},
		{
			name: "dropped-grant-audit",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				src := sys.PE(0).AllocQueue("src", 64)
				for i := 0; i < 50; i++ {
					src.Enq(queue.Data(uint64(i)))
				}
				xq := sys.InterPEQueue(2, "xq", 4, 1)
				sys.PE(0).AddStage(passStage("send", stage.LocalIn(src), stage.CreditOut(xq.Port(0))))
				plan := faults.NewPlan(3)
				plan.Add(faults.DroppedGrant{Arbiter: 0, At: 50})
				return sys, plan
			},
			reason: core.ErrInvariant,
		},
		{
			name: "delayed-reconfig-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := fwdSinkSystem(t, cfg)
				plan := faults.NewPlan(4)
				plan.Add(faults.DelayedReconfig{PE: 0, Extra: 100_000, At: 1})
				return sys, plan
			},
			reason: core.ErrDeadlock,
		},
		{
			name: "stalled-drm-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				pe := sys.PE(3)
				arr := make([]uint64, 256)
				for i := range arr {
					arr[i] = uint64(i)
				}
				base := sys.Backing.AllocSlice(arr)
				addrs := pe.AllocQueue("addrs", 512)
				vals := pe.AllocQueue("vals", 16)
				d := pe.DRM(0)
				d.Configure(core.DRMDereference, stage.LocalOut(vals))
				pe.AddStage(passStage("feed", stage.LocalIn(addrs), d.Feed()))
				pe.AddStage(sinkStage("sink", stage.LocalIn(vals)))
				for i := range arr {
					addrs.Enq(queue.Data(uint64(base) + uint64(i*mem.WordBytes)))
				}
				plan := faults.NewPlan(5)
				plan.Add(faults.StalledDRM{PE: 3, DRM: 0, Extra: 10_000_000, At: 100})
				return sys, plan
			},
			reason: core.ErrDeadlock,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(oracle bool) (uint64, *core.StopError) {
				cfg := testConfig(4)
				cfg.NoFastForward = oracle
				sys, plan := sc.build(t, cfg)
				if err := plan.Arm(sys); err != nil {
					t.Fatal(err)
				}
				se := runToFailure(t, sys, sc.reason)
				return sys.Cycle, se
			}
			slowCycle, slowErr := run(true)
			fastCycle, fastErr := run(false)
			if !reflect.DeepEqual(fastErr, slowErr) {
				t.Errorf("errors differ\nfast:   %+v\noracle: %+v", fastErr, slowErr)
			}
			if fastCycle != slowCycle {
				t.Errorf("detected at cycle %d, oracle %d", fastCycle, slowCycle)
			}
		})
	}
}
