package core

import (
	"reflect"
	"strings"
	"testing"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// mulStage pops one token and pushes it twice — token multiplication, so a
// ring of mulStages inevitably fills its queues and deadlocks on credits.
func mulStage(name string, in stage.In, out stage.Out) *stage.Stage {
	return &stage.Stage{
		Name: name,
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if c.Out[0].Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			c.Out[0].Push(t)
			c.Out[0].Push(t)
			return stage.Fired
		},
		Mapping: passDFG(name),
		In:      []stage.In{in},
		Out:     []stage.Out{out},
	}
}

// TestWatchdogReportsCreditCycleDeadlock constructs the classic credited
// ring deadlock — two PEs multiplying tokens at each other until both
// queues are full and neither producer holds credits — and checks the
// watchdog reports it via ErrDeadlock within one window of the cycle the
// ring wedges, with wait-for edges that name the blocked queues.
func TestWatchdogReportsCreditCycleDeadlock(t *testing.T) {
	cfg := testConfig(2)
	cfg.WatchdogCycles = 2000
	sys := NewSystem(cfg)

	// ring0 lives on pe0 with two producers (port 0 seeds, port 1 is the
	// pe1 stage); ring1 lives on pe1 fed by the pe0 stage.
	ring0 := sys.InterPEQueue(0, "ring0", 16, 2)
	ring1 := sys.InterPEQueue(1, "ring1", 16, 1)
	sys.PE(0).AddStage(mulStage("mul0", stage.CreditedIn(ring0), stage.CreditOut(ring1.Port(0))))
	sys.PE(1).AddStage(mulStage("mul1", stage.CreditedIn(ring1), stage.CreditOut(ring0.Port(1))))
	if !ring0.Port(0).Send(queue.Data(1)) {
		t.Fatal("seed send failed")
	}
	// wedged is the first cycle after the last one in which any progress
	// counter moved: from it on, the ring is stuck.
	var wedged uint64
	last := sys.progressSig()
	sys.OnCycle(func(s *System, now uint64) {
		if sig := s.progressSig(); sig != last {
			last, wedged = sig, now
		}
	})

	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	se := stopError(t, err, ErrDeadlock)
	if wedged == 0 || se.Cycle <= wedged || se.Cycle-wedged > cfg.WatchdogCycles {
		t.Fatalf("ring wedged at cycle %d, watchdog tripped at %d: want within one window (%d) after it",
			wedged, se.Cycle, cfg.WatchdogCycles)
	}
	var named bool
	for _, e := range se.WaitFor {
		if strings.Contains(e.WaitsOn, "ring0") || strings.Contains(e.WaitsOn, "ring1") {
			named = true
		}
	}
	if !named {
		t.Fatalf("wait-for summary %v does not name a blocked ring queue", se.WaitFor)
	}
	if !strings.Contains(err.Error(), "wait-for") || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error message lacks the report: %v", err)
	}
}

// TestMaxCyclesErrorCarriesWaitFor disables the watchdog and checks that
// even the budget-exhaustion path explains what was stuck.
func TestMaxCyclesErrorCarriesWaitFor(t *testing.T) {
	cfg := testConfig(1)
	cfg.WatchdogCycles = 0
	cfg.MaxCycles = 1500
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	q := pe.AllocQueue("qstuck", 4)
	q.Enq(queue.Data(1))
	pe.AddStage(&stage.Stage{
		Name: "stuck",
		Fire: func(*stage.Ctx) stage.Status {
			return stage.NoOutput
		},
		Mapping:   passDFG("stuck"),
		In:        []stage.In{stage.LocalIn(q)},
		StateWork: func() int { return 1 },
	})
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	stopError(t, err, ErrMaxCycles)
	msg := err.Error()
	for _, want := range []string{"wait-for", "stuck", "qstuck"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("ErrMaxCycles message lacks %q:\n%s", want, msg)
		}
	}
}

// TestRunRecoversQueueCorruption counterfeits a credit mid-run so the next
// credited enqueue overruns a full queue: the queue layer's typed panic
// must come back as a per-run ErrInvariant instead of crashing the process.
func TestRunRecoversQueueCorruption(t *testing.T) {
	cfg := testConfig(1)
	cfg.AuditCycles = 0 // let the panic path, not the audit, catch it
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	src := pe.AllocQueue("src", 16)
	for i := 0; i < 10; i++ {
		src.Enq(queue.Data(uint64(i)))
	}
	arb := sys.InterPEQueue(0, "cq", 4, 1)
	pe.AddStage(passStage("send", stage.LocalIn(src), stage.CreditOut(arb.Port(0))))
	sys.OnCycle(func(s *System, now uint64) {
		if now == 100 {
			arb.Port(0).FaultAdjustCredits(+1)
		}
	})
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	stopError(t, err, ErrInvariant)
	if !strings.Contains(err.Error(), "enqueue failed") || !strings.Contains(err.Error(), "cq") {
		t.Fatalf("recovered corruption does not name the culprit: %v", err)
	}
}

// TestAuditLiveCleanOnHealthySystem runs a healthy pipeline and audits
// every cycle: the audit must never fire, and the run's outcome must be
// identical with auditing on or off (the layer observes, never perturbs).
func TestAuditLiveCleanOnHealthySystem(t *testing.T) {
	run := func(audit uint64) (Result, uint64) {
		cfg := testConfig(1)
		cfg.AuditCycles = audit
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		q1 := pe.AllocQueue("q1", 32)
		q2 := pe.AllocQueue("q2", 32)
		got := 0
		pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
		pe.AddStage(sinkStage("sink", stage.LocalIn(q2), &got))
		for i := 0; i < 30; i++ {
			q1.Enq(queue.Data(uint64(i)))
		}
		res, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
		if err != nil {
			t.Fatalf("audit=%d: %v", audit, err)
		}
		return res, sys.Cycle
	}
	resOff, cycOff := run(0)
	resOn, cycOn := run(1)
	if cycOff != cycOn || !reflect.DeepEqual(resOff, resOn) {
		t.Fatalf("per-cycle audit perturbed the run: %d vs %d cycles", cycOff, cycOn)
	}
}

// TestOversizeBackingRejected pins the cache tags' reach: a backing store
// of mem.MaxBackingBytes builds, and one byte more is a config error, not a
// system whose caches alias lines.
func TestOversizeBackingRejected(t *testing.T) {
	cfg := testConfig(1)
	cfg.BackingBytes = mem.MaxBackingBytes
	if _, err := NewSystemChecked(cfg); err != nil {
		t.Fatalf("BackingBytes at the limit rejected: %v", err)
	}
	cfg.BackingBytes = mem.MaxBackingBytes + 1
	_, err := NewSystemChecked(cfg)
	if err == nil || !strings.Contains(err.Error(), "exceeds the caches'") {
		t.Fatalf("BackingBytes past the limit: got error %v", err)
	}
}

// TestNewSystemCheckedValidation covers the up-front config validation.
func TestNewSystemCheckedValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"no PEs":           func(c *Config) { c.PEs = 0 },
		"no cycle budget":  func(c *Config) { c.MaxCycles = 0 },
		"no queue memory":  func(c *Config) { c.QueueMemBytes = 0 },
		"negative DRMs":    func(c *Config) { c.DRMsPerPE = -1 },
		"no DRM capacity":  func(c *Config) { c.DRMOutstanding = 0 },
		"no backing":       func(c *Config) { c.BackingBytes = 0 },
		"negative backing": func(c *Config) { c.BackingBytes = -5 },
	}
	for name, mutate := range bad {
		cfg := testConfig(2)
		mutate(&cfg)
		if _, err := NewSystemChecked(cfg); err == nil {
			t.Errorf("%s: NewSystemChecked accepted an invalid config", name)
		}
	}

	// Hier.Clients follows PEs: shrinking the default 16-PE machine needs
	// no second edit.
	cfg := DefaultConfig()
	cfg.PEs = 4
	sys, err := NewSystemChecked(cfg)
	if err != nil {
		t.Fatalf("DefaultConfig with PEs=4 rejected: %v", err)
	}
	if got := len(sys.Hier.L1s); got != 4 {
		t.Fatalf("DefaultConfig with PEs=4 built %d L1s, want 4", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSystem did not panic on an invalid config")
			}
		}()
		NewSystem(Config{})
	}()
}

// gatedPair builds the 2-PE gate shape: pe0's "gated" stage acquires one
// slot of a limit-2 gate per key it sends to pe1, where the "release"
// stage runs release once per key it receives.
func gatedPair(sys *System, release func(g *stage.Gate) stage.Status) {
	gate := &stage.Gate{Limit: 2}
	keys := sys.PE(0).AllocQueue("keys", 16)
	for i := 0; i < 8; i++ {
		keys.Enq(queue.Data(uint64(i)))
	}
	toPE1 := sys.InterPEQueue(1, "sent", 8, 1)
	sys.PE(0).AddStage(&stage.Stage{
		Name: "gated",
		Fire: func(c *stage.Ctx) stage.Status {
			if gate.Full() {
				return stage.Sleep
			}
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if !c.Out[0].Push(t) {
				return stage.NoOutput
			}
			c.In[0].Pop()
			gate.Acquire()
			return stage.Fired
		},
		Mapping: passDFG("gated"),
		In:      []stage.In{stage.LocalIn(keys)},
		Out:     []stage.Out{stage.CreditOut(toPE1.Port(0))},
		Gate:    gate,
	})
	sys.PE(1).AddStage(&stage.Stage{
		Name: "release",
		Fire: func(c *stage.Ctx) stage.Status {
			if _, ok := c.In[0].Peek(); !ok {
				return stage.NoInput
			}
			st := release(gate)
			if st == stage.Fired {
				c.In[0].Pop()
			}
			return st
		},
		Mapping: passDFG("release"),
		In:      []stage.In{stage.CreditedIn(toPE1)},
	})
}

// TestWatchdogNamesFullGate wedges the releasing stage: the gated stage
// fills its gate and then holds six queued keys it may not admit. The
// watchdog must name the gate as what it waits on — a gated stage reports
// no input work, so without the edge it would look merely starved — and
// the dump must show the gate's count.
func TestWatchdogNamesFullGate(t *testing.T) {
	cfg := testConfig(2)
	cfg.WatchdogCycles = 2000
	sys := NewSystem(cfg)
	gatedPair(sys, func(*stage.Gate) stage.Status { return stage.NoOutput })
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	se := stopError(t, err, ErrDeadlock)
	want := WaitEdge{Waiter: "pe0/gated", WaitsOn: "gate", Reason: "2/2"}
	found := false
	for _, e := range se.WaitFor {
		found = found || e == want
	}
	if !found {
		t.Errorf("wait-for %v lacks %v", se.WaitFor, want)
	}
	if !strings.Contains(err.Error(), "pe0/gated -> gate (2/2)") || !strings.Contains(sys.Dump(), "stage gated work=0 ready=false outBlocked=false gate=2/2") {
		t.Errorf("report or dump lacks the gate:\n%v\n%s", err, sys.Dump())
	}
}

// TestAuditCatchesDoubleRelease releases the gate twice per key, driving
// its count negative; the live audit must flag it.
func TestAuditCatchesDoubleRelease(t *testing.T) {
	cfg := testConfig(2)
	cfg.AuditCycles = 1
	sys := NewSystem(cfg)
	gatedPair(sys, func(g *stage.Gate) stage.Status {
		g.Release()
		g.Release()
		return stage.Fired
	})
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	stopError(t, err, ErrInvariant)
	if !strings.Contains(err.Error(), "gate-count: pe0/gated: gate holds -") {
		t.Fatalf("err = %v, want an ErrInvariant gate-count violation", err)
	}
}
