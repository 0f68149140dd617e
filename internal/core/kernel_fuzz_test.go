package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/faults"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// The kernel equivalence property (DESIGN.md §10): seeded random synthetic
// pipelines whose credited queues cross between PEs in both directions —
// forward sends (the consumer ticks later the same cycle), backward sends
// (the consumer already ticked), backward credit returns, gate releases,
// DRM-latency windows, coupled-load stalls — must produce the same observable run under
// the parking kernel as under the Config.NoFastForward oracle that ticks
// every PE on every cycle. Holding the equality also proves that neither a
// parked PE nor a whole-machine clock jump ever skips past an exchange.

// randPipeline is one random synthetic machine: a credited forwarding chain
// over the PEs with a reflection edge sending a fraction of the traffic
// backward, so tokens repeatedly cross PE boundaries both ways, and a gate
// the head acquires per token and the tail releases per sunk token.
type randPipeline struct {
	inbox0   *queue.Queue
	gate     stage.Gate
	sunk     int
	rounds   int
	maxRound int
	batch    int
	refl     []int // reflections per injected token, fixed by the seed
}

// tokenOf packs (id, reflectionsLeft); values stay below the identity
// array's extent so DRM hops preserve them exactly.
func tokenOf(id, refl int) uint64 { return uint64(id*16 + refl) }

// passDFG is a minimal mapped datapath for synthetic stages.
func passDFG(name string) *cgra.Mapping {
	g := cgra.NewDFG(name)
	v := g.Deq(0)
	g.Enq(0, v)
	m, err := cgra.Place(g, core.DefaultConfig().Fabric, false)
	if err != nil {
		panic(err)
	}
	return m
}

// buildRandPipeline wires the random chain onto sys. The seed fixes the PE
// order, the hop behaviors (plain forward, coupled load, DRM dereference),
// queue capacities, the reflection schedule and the gate's limit (drawn
// last, so the committed corpus keeps its pipelines). A chain has at least three
// stages; with fewer PEs than stages, stages share PEs round-robin and
// time-multiplex on the fabric.
func buildRandPipeline(sys *core.System, seed int64) *randPipeline {
	rng := rand.New(rand.NewSource(seed))
	n := len(sys.PEs)
	chain := rng.Perm(n)
	stages := max(n, 3)
	peOf := func(k int) *core.PE { return sys.PE(chain[k%n]) }

	// Identity array: arr[i] = i, so a DRM dereference of arr+(v%ext)*8
	// returns v for every token value this pipeline produces.
	const ext = 4096
	arr := sys.Backing.AllocWords(ext)
	for i := 0; i < ext; i++ {
		sys.Backing.Store(arr+mem.Addr(i*8), uint64(i))
	}

	p := &randPipeline{
		maxRound: 3 + rng.Intn(3),
		batch:    8 + rng.Intn(17),
	}
	for i := 0; i < p.batch*(p.maxRound+1); i++ {
		p.refl = append(p.refl, rng.Intn(4))
	}

	// inbox[k] feeds stage k: a local queue for the head (the program seeds
	// it directly), a credited queue for every later hop.
	inPort := make([]stage.In, stages)
	outPort := make([]stage.Out, stages) // producer-side port into inbox[k]
	p.inbox0 = peOf(0).AllocQueue("in", 64)
	inPort[0] = stage.LocalIn(p.inbox0)
	for k := 1; k < stages; k++ {
		a := sys.InterPEQueue(chain[k%n], fmt.Sprintf("hop%d", k), 4+rng.Intn(9), 1)
		inPort[k] = stage.CreditedIn(a)
		outPort[k] = stage.CreditOut(a.Port(0))
	}
	// The reflection edge: the tail sends tokens with reflections left back
	// to a mid-chain stage, which merges them into the forward flow.
	backIdx := 1 + rng.Intn(stages/2)
	backArb := sys.InterPEQueue(chain[backIdx%n], "back", 4+rng.Intn(5), 1)

	for k := 0; k < stages-1; k++ {
		pe := peOf(k)
		ins := []stage.In{inPort[k]}
		if k == backIdx {
			ins = append(ins, stage.CreditedIn(backArb))
		}
		fwd := func(c *stage.Ctx, v uint64) bool { return c.Out[0].Push(queue.Data(v)) }
		switch rng.Intn(3) {
		case 0: // plain forward
		case 1: // coupled load (fabric stall on miss)
			inner := fwd
			fwd = func(c *stage.Ctx, v uint64) bool {
				if !inner(c, v) {
					return false
				}
				c.Load(arr + mem.Addr((v%ext)*8))
				return true
			}
		case 2: // DRM dereference hop: address in, identical value out
			d := pe.DRM(k / n) // one DRM per stage sharing this PE
			d.Configure(core.DRMDereference, outPort[k+1])
			fwd = func(c *stage.Ctx, v uint64) bool {
				return c.Out[0].Push(queue.Data(uint64(arr) + (v%ext)*8))
			}
			outPort[k+1] = stage.LocalOut(d.In())
		}
		var gate *stage.Gate
		if k == 0 {
			gate = &p.gate
		}
		name := fmt.Sprintf("hop%d", k)
		pe.AddStage(&stage.Stage{
			Name: name,
			Fire: func(c *stage.Ctx) stage.Status {
				if gate != nil && gate.Full() {
					return stage.Sleep
				}
				for i := len(c.In) - 1; i >= 0; i-- {
					t, ok := c.In[i].Peek()
					if !ok {
						continue
					}
					if c.Out[0].Space() < 1 {
						return stage.NoOutput
					}
					if !fwd(c, t.Value) {
						return stage.NoOutput
					}
					c.In[i].Pop()
					if gate != nil {
						gate.Acquire()
					}
					return stage.Fired
				}
				return stage.NoInput
			},
			Mapping: passDFG(name),
			In:      ins,
			Out:     []stage.Out{outPort[k+1]},
			Gate:    gate,
		})
	}
	// Tail: reflect tokens with reflections left, sink the rest.
	backOut := stage.CreditOut(backArb.Port(0))
	peOf(stages - 1).AddStage(&stage.Stage{
		Name: "tail",
		Fire: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if t.Value%16 > 0 {
				if !backOut.Push(queue.Data(t.Value - 1)) {
					return stage.NoOutput
				}
			} else {
				p.sunk++
				p.gate.Release()
			}
			c.In[0].Pop()
			return stage.Fired
		},
		Mapping: passDFG("tail"),
		In:      []stage.In{inPort[stages-1]},
	})
	p.gate.Limit = 1 + rng.Intn(8)
	return p
}

// Quiesced implements core.Program: inject the next batch, or finish.
func (p *randPipeline) Quiesced(*core.System) bool {
	if p.rounds > p.maxRound {
		return false
	}
	for j := 0; j < p.batch; j++ {
		id := p.rounds*p.batch + j
		p.inbox0.Enq(queue.Data(tokenOf(id, p.refl[id])))
	}
	p.rounds++
	return true
}

// armFaults installs one seed-chosen fault. Every fault acts from an
// OnCycle hook, which forces every PE to settle and tick each cycle.
func armFaults(t *testing.T, sys *core.System, seed int64) {
	plan := faults.NewPlan(uint64(seed))
	r := plan.Rand()
	at := plan.TriggerBetween(1, 3000)
	arb := int(r.Uint64() % uint64(len(sys.Arbiters())))
	pe := int(r.Uint64() % uint64(len(sys.PEs)))
	extra := 200 + r.Uint64()%4000
	plan.Add([]faults.Injector{
		faults.WithheldCredits{Arbiter: arb, Port: 0, N: 1, At: at},
		faults.DroppedGrant{Arbiter: arb, At: at},
		faults.DelayedReconfig{PE: pe, Extra: extra, At: at},
		faults.StalledDRM{PE: pe, DRM: 0, Extra: extra, At: at},
		faults.StuckStage{PE: pe, Stage: 0, At: at},
	}[r.Uint64()%5])
	if err := plan.Arm(sys); err != nil {
		t.Fatal(err)
	}
}

// kernelRun is every comparable surface of one run.
type kernelRun struct {
	res  core.Result
	err  error
	sys  *core.System
	col  *trace.Collector
	sunk int
}

// checkKernelEquivalence holds the parking kernel equal to the naive oracle
// on one random pipeline, given by (seed, PE count, metrics period, audit
// period, fault plan). PE counts map onto 1..16; a zero period turns the
// metrics sampler or the audit off.
func checkKernelEquivalence(t *testing.T, seed int64, pes uint8, metrics, audit uint16, injectFaults bool) {
	t.Helper()
	run := func(oracle bool) kernelRun {
		n := 1 + (int(pes)+15)%16
		cfg := core.DefaultConfig()
		cfg.PEs = n
		cfg.BackingBytes = 16 << 20
		cfg.MaxCycles = 5_000_000
		cfg.WatchdogCycles = 1 << 16
		cfg.AuditCycles = uint64(audit)
		cfg.NoFastForward = oracle
		col := trace.NewCollector(1 << 16)
		cfg.Tracer = col
		if metrics > 0 {
			cfg.Metrics, cfg.MetricsCycles = col, uint64(metrics)
		}
		sys := core.NewSystem(cfg)
		p := buildRandPipeline(sys, seed)
		if injectFaults {
			armFaults(t, sys, seed)
		}
		p.inbox0.Enq(queue.Data(tokenOf(0, 0))) // pre-seed so the run starts busy
		res, err := sys.Run(p)
		return kernelRun{res, err, sys, col, p.sunk}
	}
	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast.err, slow.err) {
		t.Fatalf("errors differ\nfast:   %v\noracle: %v", fast.err, slow.err)
	}
	if !injectFaults {
		if slow.err != nil {
			t.Fatalf("healthy pipeline failed: %v", slow.err)
		}
		if slow.sunk == 0 {
			t.Fatal("pipeline sank no tokens; the topology is degenerate")
		}
		if err := fast.sys.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(fast.res, slow.res) || fast.sys.Cycle != slow.sys.Cycle {
		t.Errorf("Result differs\nfast:   %+v\noracle: %+v", fast.res, slow.res)
	}
	for i := range fast.sys.PEs {
		if f, s := fast.sys.PEs[i].Stack, slow.sys.PEs[i].Stack; f != s {
			t.Errorf("pe%d CPI stack %+v, oracle %+v", i, f, s)
		}
	}
	if fe, se := fast.col.Events(), slow.col.Events(); !reflect.DeepEqual(fe, se) {
		i := 0
		for i < min(len(fe), len(se)) && fe[i] == se[i] {
			i++
		}
		t.Errorf("event streams (%d vs %d events) first differ at %d", len(fe), len(se), i)
	}
	if !reflect.DeepEqual(fast.col.Rows(), slow.col.Rows()) {
		t.Errorf("metrics rows differ: fast %d, oracle %d", len(fast.col.Rows()), len(slow.col.Rows()))
	}
	if fast.sunk != slow.sunk {
		t.Errorf("sank %d tokens, oracle %d", fast.sunk, slow.sunk)
	}
	fk, sk := fast.sys.KernelStats(), slow.sys.KernelStats()
	if sk.Parked() != 0 || sk.Jumped != 0 || fk.Ticks > uint64(fk.PEs)*fk.Cycles {
		t.Errorf("kernel counters: fast %+v, oracle %+v", fk, sk)
	}
}

// FuzzKernelEquivalence fuzzes checkKernelEquivalence. Its seed corpus is
// the committed entries under testdata/fuzz: probe seeds that once exposed
// an occupancy-replay divergence in a multi-shard variant of the kernel, at
// other widths, periods and fault plans.
func FuzzKernelEquivalence(f *testing.F) {
	f.Fuzz(checkKernelEquivalence)
}

// TestProbeShardInvarianceManySeeds runs the 150-seed, 8-PE sweep at the
// probe's periods (metrics 128, audit 64) that once exposed that
// divergence.
func TestProbeShardInvarianceManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkKernelEquivalence(t, seed, 8, 128, 64, false)
		})
	}
}

// TestShardInvarianceRandomPipelines runs the first five seeds at widths
// from one PE (the chain time-multiplexes on one fabric) to sixteen, with
// and without a fault plan. The Shard names are kept from the multi-shard
// kernel these first compared; its per-PE parking is now part of the one
// kernel.
func TestShardInvarianceRandomPipelines(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, pes := range []uint8{1, 2, 3, 4, 8, 16} {
				for _, injectFaults := range []bool{false, true} {
					t.Run(fmt.Sprintf("pes%d-faults%v", pes, injectFaults), func(t *testing.T) {
						checkKernelEquivalence(t, seed, pes, 128, 64, injectFaults)
					})
				}
			}
		})
	}
}
