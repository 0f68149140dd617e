package core

import (
	"reflect"
	"strings"
	"testing"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// The differential harness: build the same synthetic machine twice, run one
// with the event-horizon fast-forward (the default) and one with the naive
// loop (Config.NoFastForward), and require every observable surface to be
// bit-identical — Result, final cycle, trace events at their original
// cycles, metrics rows, sampled occupancy, and error values for runs that
// end in deadlock or budget exhaustion.

// horizonCase builds one synthetic system; mut edits the config before
// construction (both runs get the same edit, on top of the oracle flag).
type horizonCase struct {
	name  string
	mut   func(*Config)
	build func(t *testing.T, sys *System) Program
}

// runHorizonCase runs one build twice and returns both sides' artifacts.
func runHorizonCase(t *testing.T, hc horizonCase, oracle bool) (Result, error, *System, *trace.Collector) {
	t.Helper()
	cfg := testConfig(1)
	col := trace.NewCollector(1 << 16)
	cfg.Tracer = col
	cfg.Metrics = col
	cfg.MetricsCycles = 256
	if hc.mut != nil {
		hc.mut(&cfg)
	}
	cfg.NoFastForward = oracle
	sys := NewSystem(cfg)
	prog := hc.build(t, sys)
	res, err := sys.Run(prog)
	return res, err, sys, col
}

func checkHorizonCase(t *testing.T, hc horizonCase) {
	t.Helper()
	fastRes, fastErr, fastSys, fastCol := runHorizonCase(t, hc, false)
	slowRes, slowErr, slowSys, slowCol := runHorizonCase(t, hc, true)

	if !reflect.DeepEqual(fastRes, slowRes) {
		t.Errorf("Result differs\nfast:   %+v\noracle: %+v", fastRes, slowRes)
	}
	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("error presence differs: fast=%v oracle=%v", fastErr, slowErr)
	}
	if !reflect.DeepEqual(fastErr, slowErr) {
		t.Errorf("error differs\nfast:   %v\noracle: %v", fastErr, slowErr)
	}
	if fastSys.Cycle != slowSys.Cycle {
		t.Errorf("final cycle differs: fast=%d oracle=%d", fastSys.Cycle, slowSys.Cycle)
	}
	if !reflect.DeepEqual(fastCol.Events(), slowCol.Events()) {
		diffEvents(t, fastCol.Events(), slowCol.Events())
	}
	if !reflect.DeepEqual(fastCol.Rows(), slowCol.Rows()) {
		t.Errorf("metrics rows differ: fast has %d, oracle has %d", len(fastCol.Rows()), len(slowCol.Rows()))
	}
	for i := range fastSys.PEs {
		fpe, spe := fastSys.PEs[i], slowSys.PEs[i]
		if fpe.Stack != spe.Stack {
			t.Errorf("pe%d CPI stack differs: fast=%+v oracle=%+v", i, fpe.Stack, spe.Stack)
		}
		for j := range fpe.DRMs {
			fd, sd := fpe.DRMs[j], spe.DRMs[j]
			if fd.OutFull != sd.OutFull || fd.Accesses != sd.Accesses || fd.Emitted != sd.Emitted {
				t.Errorf("%s counters differ: fast={acc %d emit %d outfull %d} oracle={acc %d emit %d outfull %d}",
					fd.Name(), fd.Accesses, fd.Emitted, fd.OutFull, sd.Accesses, sd.Emitted, sd.OutFull)
			}
		}
	}
}

func diffEvents(t *testing.T, fast, slow []trace.Event) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Errorf("event counts differ: fast=%d oracle=%d", len(fast), len(slow))
	}
	n := len(fast)
	if len(slow) < n {
		n = len(slow)
	}
	for i := 0; i < n; i++ {
		if fast[i] != slow[i] {
			t.Errorf("event %d differs:\nfast:   %+v\noracle: %+v", i, fast[i], slow[i])
			return
		}
	}
}

// drmLatencyCase is the memory-bound shape fast-forward targets: a DRM
// dereferencing cold addresses (long, known-future ready cycles) into a
// queue a sink drains. Between issue and delivery everything is inert.
func drmLatencyCase() horizonCase {
	return horizonCase{
		name: "drm-latency",
		build: func(t *testing.T, sys *System) Program {
			pe := sys.PE(0)
			arr := sys.Backing.AllocWords(1 << 16)
			addrQ := pe.DRM(0).In()
			out := pe.AllocQueue("out", 16)
			pe.DRM(0).Configure(DRMDereference, stage.LocalOut(out))
			got := 0
			pe.AddStage(sinkStage("sink", stage.LocalIn(out), &got))
			next := 0
			refill := func() {
				// Spread addresses across pages so every access cold-misses.
				for j := 0; j < 8; j++ {
					addrQ.Enq(queue.Data(uint64(arr) + uint64((next*8+j)*4096)))
				}
				next++
			}
			refill()
			return ProgramFunc(func(*System) bool {
				if next >= 8 {
					return false
				}
				refill()
				return true
			})
		},
	}
}

// stallCase exercises coupled-load fabric freezes (Stack.Stall windows).
func stallCase() horizonCase {
	return horizonCase{
		name: "coupled-stall",
		build: func(t *testing.T, sys *System) Program {
			pe := sys.PE(0)
			arr := sys.Backing.AllocWords(1 << 16)
			q := pe.AllocQueue("q", 64)
			n := 0
			pe.AddStage(&stage.Stage{
				Name: "loads",
				Fire: func(c *stage.Ctx) stage.Status {
					tok, ok := c.In[0].Pop()
					if !ok {
						return stage.NoInput
					}
					c.Load(arr + mem.Addr(tok.Value*4096))
					n++
					return stage.Fired
				},
				Mapping: passDFG("loads"),
				In:      []stage.In{stage.LocalIn(q)},
			})
			for i := 0; i < 32; i++ {
				q.Enq(queue.Data(uint64(i)))
			}
			return ProgramFunc(func(*System) bool { return false })
		},
	}
}

// reconfigCase forces constant stage switching, so windows are
// reconfiguration periods and sliding scheduler cooldowns.
func reconfigCase() horizonCase {
	return horizonCase{
		name: "reconfig",
		build: func(t *testing.T, sys *System) Program {
			pe := sys.PE(0)
			qa := pe.AllocQueue("qa", 4)
			qb := pe.AllocQueue("qb", 4)
			gotA, gotB := 0, 0
			pe.AddStage(sinkStage("a", stage.LocalIn(qa), &gotA))
			pe.AddStage(sinkStage("b", stage.LocalIn(qb), &gotB))
			prog := 0
			return ProgramFunc(func(*System) bool {
				prog++
				if prog > 32 {
					return false
				}
				qa.Enq(queue.Data(0))
				qb.Enq(queue.Data(0))
				return true
			})
		},
	}
}

// gateCase runs a stage.Gate around a three-PE loop: the gated PE sends a
// key to the forwarding PE, whose DRM dereference returns it, many cycles
// later, to the releasing PE, which releases the gate. The gated PE parks
// behind its full gate with no wake of its own, so only the release's
// dirty mark brings it back. With the releaser's id below the gated PE's,
// the gated stage must fire in the release cycle, as the naive loop's
// ascending order lets it; with the releaser above, one cycle later.
func gateCase(name string, gated, releaser int) horizonCase {
	fwd := 3 - gated - releaser
	return horizonCase{
		name: name,
		mut:  func(cfg *Config) { cfg.PEs = 3 },
		build: func(t *testing.T, sys *System) Program {
			arr := sys.Backing.AllocWords(1 << 17)
			gate := &stage.Gate{Limit: 2}
			keys := sys.PE(gated).AllocQueue("keys", 64)
			for i := 0; i < 32; i++ {
				keys.Enq(queue.Data(uint64(i)))
			}
			toFwd := sys.InterPEQueue(fwd, "keys", 4, 1)
			toRel := sys.InterPEQueue(releaser, "vals", 4, 1)
			drm := sys.PE(fwd).DRM(0)
			drm.Configure(DRMDereference, stage.CreditOut(toRel.Port(0)))
			sys.PE(releaser).AddStage(&stage.Stage{
				Name: "release",
				Fire: func(c *stage.Ctx) stage.Status {
					if _, ok := c.In[0].Pop(); !ok {
						return stage.NoInput
					}
					gate.Release()
					return stage.Fired
				},
				Mapping: passDFG("release"),
				In:      []stage.In{stage.CreditedIn(toRel)},
			})
			sys.PE(gated).AddStage(&stage.Stage{
				Name: "gated",
				Fire: func(c *stage.Ctx) stage.Status {
					if gate.Full() {
						return stage.Sleep
					}
					if c.In[0].Len() == 0 {
						return stage.NoInput
					}
					if c.Out[0].Space() < 1 {
						return stage.NoOutput
					}
					tok, _ := c.In[0].Pop()
					gate.Acquire()
					c.Out[0].Push(tok)
					return stage.Fired
				},
				Mapping: passDFG("gated"),
				In:      []stage.In{stage.LocalIn(keys)},
				Out:     []stage.Out{stage.CreditOut(toFwd.Port(0))},
				Gate:    gate,
			})
			sys.PE(fwd).AddStage(&stage.Stage{
				Name: "fwd",
				Fire: func(c *stage.Ctx) stage.Status {
					tok, ok := c.In[0].Peek()
					if !ok {
						return stage.NoInput
					}
					if c.Out[0].Space() < 1 {
						return stage.NoOutput
					}
					c.In[0].Pop()
					c.Out[0].Push(queue.Data(uint64(arr) + tok.Value*4096))
					return stage.Fired
				},
				Mapping: passDFG("fwd"),
				In:      []stage.In{stage.CreditedIn(toFwd)},
				Out:     []stage.Out{stage.LocalOut(drm.In())},
			})
			return ProgramFunc(func(*System) bool { return false })
		},
	}
}

// outFullCase parks a DRM on a full output queue that is drained very
// slowly, so the per-cycle OutFull charge must be batched exactly.
func outFullCase() horizonCase {
	return horizonCase{
		name: "drm-outfull",
		build: func(t *testing.T, sys *System) Program {
			pe := sys.PE(0)
			arr := sys.Backing.AllocSlice(make([]uint64, 256))
			out := pe.AllocQueue("out", 2)
			d := pe.DRM(0)
			d.Configure(DRMScan, stage.LocalOut(out))
			d.In().Enq(queue.Data(uint64(arr)))
			d.In().Enq(queue.Data(uint64(arr) + 256*mem.WordBytes))
			// The sink only drains when poked by the control program, so the
			// DRM spends long stretches blocked on the full output.
			gate := pe.AllocQueue("gate", 1)
			got := 0
			pe.AddStage(&stage.Stage{
				Name: "gated",
				Fire: func(c *stage.Ctx) stage.Status {
					if _, ok := c.In[1].Peek(); !ok {
						return stage.NoInput
					}
					if _, ok := c.In[0].Pop(); !ok {
						return stage.NoInput
					}
					c.In[1].Pop()
					got++
					return stage.Fired
				},
				Mapping: passDFG("gated"),
				In:      []stage.In{stage.LocalIn(out), stage.LocalIn(gate)},
			})
			return ProgramFunc(func(*System) bool {
				if got >= 256 {
					return false
				}
				gate.Enq(queue.Data(1))
				return true
			})
		},
	}
}

// TestFastForwardMatchesOracle is the core differential pin: for every
// synthetic shape, the fast-forward and naive loops must agree on every
// observable surface.
func TestFastForwardMatchesOracle(t *testing.T) {
	for _, hc := range []horizonCase{drmLatencyCase(), stallCase(), reconfigCase(), outFullCase(),
		gateCase("gate-release-below", 1, 0), gateCase("gate-release-above", 0, 2)} {
		t.Run(hc.name, func(t *testing.T) { checkHorizonCase(t, hc) })
	}
}

// TestFastForwardTightObservation re-runs the differential cases with every
// observation cadence tightened (watchdog, audit, metrics) so windows are
// clamped at many boundaries and every check runs against skipped regions.
func TestFastForwardTightObservation(t *testing.T) {
	tight := func(cfg *Config) {
		cfg.WatchdogCycles = 128
		cfg.AuditCycles = 32
		cfg.MetricsCycles = 64
	}
	for _, hc := range []horizonCase{drmLatencyCase(), stallCase(), reconfigCase(), outFullCase()} {
		hc.mut = tight
		t.Run(hc.name, func(t *testing.T) { checkHorizonCase(t, hc) })
	}
}

// stuckLastPE puts the canonical deadlock shape (a stage that always reports
// NoOutput over register-held work) on the last PE. Any other PEs are
// empty, so the default kernel parks them from cycle 1 on and every failure
// report is built from settled, parked state.
func stuckLastPE(t *testing.T, sys *System) Program {
	pe := sys.PE(len(sys.PEs) - 1)
	q := pe.AllocQueue("q", 4)
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
	return ProgramFunc(func(*System) bool { return false })
}

// fourPEs widens a horizon case's machine to four PEs.
func fourPEs(cfg *Config) { cfg.PEs = 4 }

// checkDeadlockParity pins failure-path identity on the stuck-last-PE
// machine widened by width: a deadlocked machine must trip the watchdog at
// the same checkpoint cycle with the same structured report, parked or not.
func checkDeadlockParity(t *testing.T, width func(*Config)) {
	hc := horizonCase{
		name: "deadlock",
		mut: func(cfg *Config) {
			width(cfg)
			cfg.WatchdogCycles = 2048
		},
		build: stuckLastPE,
	}
	_, fastErr, _, _ := runHorizonCase(t, hc, false)
	_, slowErr, _, _ := runHorizonCase(t, hc, true)
	fastSE, slowSE := stopError(t, fastErr, ErrDeadlock), stopError(t, slowErr, ErrDeadlock)
	if !reflect.DeepEqual(fastSE, slowSE) {
		t.Errorf("deadlock reports differ\nfast:   %+v\noracle: %+v", fastSE, slowSE)
	}
	checkHorizonCase(t, hc)
}

// TestShortWatchdogWindowNote checks that a deadlock report whose window is
// shorter than the memory miss path says so, identically under both
// kernels, and that a report with a longer window does not.
func TestShortWatchdogWindowNote(t *testing.T) {
	for _, tc := range []struct {
		window uint64
		note   bool
	}{{64, true}, {163, true}, {164, false}, {2048, false}} {
		hc := horizonCase{
			name:  "deadlock",
			mut:   func(cfg *Config) { cfg.WatchdogCycles = tc.window },
			build: stuckLastPE,
		}
		_, fastErr, _, _ := runHorizonCase(t, hc, false)
		_, slowErr, _, _ := runHorizonCase(t, hc, true)
		fastSE, slowSE := stopError(t, fastErr, ErrDeadlock), stopError(t, slowErr, ErrDeadlock)
		if !reflect.DeepEqual(fastSE, slowSE) {
			t.Errorf("window %d: deadlock reports differ\nfast:   %+v\noracle: %+v", tc.window, fastSE, slowSE)
		}
		const note = "miss path (L1 + LLC + memory latency = 4 + 40 + 120 = 164 cycles)"
		if got := strings.Contains(fastSE.Detail, note); got != tc.note {
			t.Errorf("window %d: detail %q names the miss path: %v, want %v", tc.window, fastSE.Detail, got, tc.note)
		}
	}
}

// checkMaxCyclesParity pins budget-exhaustion identity on the same machine,
// including the wait-for edges and dump the error carries.
func checkMaxCyclesParity(t *testing.T, width func(*Config)) {
	hc := horizonCase{
		name: "maxcycles",
		mut: func(cfg *Config) {
			width(cfg)
			cfg.MaxCycles = 5000
			cfg.WatchdogCycles = 0 // let MaxCycles fire first
		},
		build: stuckLastPE,
	}
	_, fastErr, fastSys, _ := runHorizonCase(t, hc, false)
	_, slowErr, _, _ := runHorizonCase(t, hc, true)
	fastSE, slowSE := stopError(t, fastErr, ErrMaxCycles), stopError(t, slowErr, ErrMaxCycles)
	if !reflect.DeepEqual(fastSE, slowSE) {
		t.Errorf("budget reports differ\nfast:   %+v\noracle: %+v", fastSE, slowSE)
	}
	if fastSys.Cycle != 5000 {
		t.Errorf("budget exhaustion at cycle %d, want 5000", fastSys.Cycle)
	}
	checkHorizonCase(t, hc)
}

// TestFastForwardDeadlockParity runs the deadlock parity on one PE, where
// the whole machine is inert and the kernel jumps its clock.
func TestFastForwardDeadlockParity(t *testing.T) { checkDeadlockParity(t, func(*Config) {}) }

// TestShardDeadlockParity runs it on four PEs, three of them parked. (The
// Shard tests are named for the multi-shard kernel they first compared; its
// per-PE parking is now part of the one kernel.)
func TestShardDeadlockParity(t *testing.T) { checkDeadlockParity(t, fourPEs) }

// TestFastForwardMaxCyclesParity runs the budget parity on one PE.
func TestFastForwardMaxCyclesParity(t *testing.T) { checkMaxCyclesParity(t, func(*Config) {}) }

// TestShardMaxCyclesParity runs it on four PEs, three of them parked.
func TestShardMaxCyclesParity(t *testing.T) { checkMaxCyclesParity(t, fourPEs) }

// TestFastForwardCheckpointCycles pins the watchdog-checkpoint trace events
// — the cycle each lands on and its progress-signature Arg — to the naive
// loop's, cycle for cycle, even when every checkpoint falls inside a
// skipped region (the fifertrace summarizer counts exactly these events).
func TestFastForwardCheckpointCycles(t *testing.T) {
	hc := drmLatencyCase()
	hc.mut = func(cfg *Config) { cfg.WatchdogCycles = 256 }
	_, _, _, fastCol := runHorizonCase(t, hc, false)
	_, _, _, slowCol := runHorizonCase(t, hc, true)
	filter := func(evs []trace.Event) (out []trace.Event) {
		for _, e := range evs {
			if e.Kind == trace.KindCheckpoint {
				out = append(out, e)
			}
		}
		return out
	}
	fastCk, slowCk := filter(fastCol.Events()), filter(slowCol.Events())
	if len(fastCk) == 0 {
		t.Fatal("no checkpoint events captured; tighten the watchdog window")
	}
	if !reflect.DeepEqual(fastCk, slowCk) {
		t.Errorf("checkpoint events differ\nfast:   %+v\noracle: %+v", fastCk, slowCk)
	}
	for _, e := range fastCk {
		if e.Cycle%128 != 0 { // wdInterval = WatchdogCycles/2
			t.Errorf("checkpoint at cycle %d is off the 128-cycle checkpoint grid", e.Cycle)
		}
	}
}

// TestFastForwardActuallySkips guards against the fast path silently
// degrading to the naive loop: on the DRM-latency workload the skip
// machinery must cover a large share of the simulated cycles. It measures
// by construction — a run whose wall clock is dominated by inert cycles
// has far fewer Tick calls than cycles — using a counting kernel.
func TestFastForwardActuallySkips(t *testing.T) {
	ticks := 0
	hc := horizonCase{
		name: "skips",
		build: func(t *testing.T, sys *System) Program {
			pe := sys.PE(0)
			arr := sys.Backing.AllocWords(1 << 16)
			addrQ := pe.DRM(0).In()
			out := pe.AllocQueue("out", 16)
			pe.DRM(0).Configure(DRMDereference, stage.LocalOut(out))
			count := 0
			pe.AddStage(&stage.Stage{
				Name: "sink",
				Fire: func(c *stage.Ctx) stage.Status {
					ticks++
					if _, ok := c.In[0].Pop(); !ok {
						return stage.NoInput
					}
					count++
					return stage.Fired
				},
				Mapping: passDFG("sink"),
				In:      []stage.In{stage.LocalIn(out)},
			})
			for j := 0; j < 16; j++ {
				addrQ.Enq(queue.Data(uint64(arr) + uint64(j*4096)))
			}
			return ProgramFunc(func(*System) bool { return false })
		},
	}
	_, err, sys, _ := runHorizonCase(t, hc, false)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(ticks) >= sys.Cycle {
		t.Fatalf("kernel saw %d Fire cycles over %d simulated cycles; fast-forward skipped nothing", ticks, sys.Cycle)
	}
	if sys.Cycle < 100 {
		t.Fatalf("workload too short (%d cycles) to prove skipping", sys.Cycle)
	}
}

// TestShardCorruptionParity pins the corruption path with parked PEs
// on both sides of the failing one: a queue-layer panic inside PE 1's tick
// at cycle 300 must carry the same text, cycle and settled CPI stacks as
// the oracle's. PE 0 has had that cycle's tick and PEs 2–3 have not, under
// both kernels.
func TestShardCorruptionParity(t *testing.T) {
	hc := horizonCase{name: "corruption", mut: fourPEs, build: func(t *testing.T, sys *System) Program {
		pe := sys.PE(1)
		q := pe.AllocQueue("q", 512)
		for i := 0; i < 500; i++ {
			q.Enq(queue.Data(uint64(i)))
		}
		pe.AddStage(&stage.Stage{
			Name: "corrupt",
			Fire: func(c *stage.Ctx) stage.Status {
				if c.Now == 300 {
					panic(&queue.Corruption{Component: "corrupt", Detail: "synthetic"})
				}
				c.In[0].Pop()
				return stage.Fired
			},
			Mapping: passDFG("corrupt"),
			In:      []stage.In{stage.LocalIn(q)},
		})
		return ProgramFunc(func(*System) bool { return false })
	}}
	_, err, sys, _ := runHorizonCase(t, hc, false)
	stopError(t, err, ErrInvariant)
	if ks := sys.KernelStats(); ks.Parked() == 0 {
		t.Fatalf("kernel parked nothing (%+v); the case does not exercise settling", ks)
	}
	checkHorizonCase(t, hc)
}
