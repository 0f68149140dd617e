package core

import (
	"testing"

	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// tickBatch builds a one-PE temporal pipeline (forward + sink, so ticks
// exercise firing, queue traffic, scheduling, and reconfiguration) and
// returns a closure that injects a burst of tokens and ticks the PE until
// they drain. The first call doubles as warmup: it establishes queue and
// ring capacities so steady state performs no growth.
func tickBatch(cfg Config) (run func(), sys *System) {
	sys = NewSystem(cfg)
	pe := sys.PE(0)
	// Deliberately tiny queues so batches generate full/ready stall edges,
	// not just reconfigurations — the emission sites under test.
	q1 := pe.AllocQueue("q1", 8)
	q2 := pe.AllocQueue("q2", 8)
	got := 0
	pe.AddStage(passStage("fwd", stage.LocalIn(q1), stage.LocalOut(q2)))
	pe.AddStage(sinkStage("sink", stage.LocalIn(q2), &got))
	return func() {
		fed := 0
		for i := 0; i < 2000; i++ {
			if fed < 256 && q1.Space() > 0 {
				q1.Enq(queue.Data(uint64(fed)))
				fed++
			}
			pe.Tick(sys.Cycle)
			sys.Cycle++
		}
	}, sys
}

// TestDisabledTracingAllocatesNothing is the overhead contract's teeth
// (DESIGN.md §9): with no Tracer or MetricsSink attached, the simulation
// hot path — stage firing, scheduling, reconfiguration, queue traffic —
// performs zero heap allocations per tick batch. Any emission site that
// builds an event before nil-checking, or any hook wiring that allocates
// per tick, trips this immediately.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	run, _ := tickBatch(testConfig(1))
	run() // warmup: slice growth, first-switch config cache misses
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("untraced tick batch allocates %v times per run, want 0", allocs)
	}
}

// TestSteadyStateTracingAllocatesNothing covers the enabled side: once the
// collector's ring is saturated (flight-recorder mode), emitting events is
// overwrite-in-place and also allocation-free — a long traced run reaches a
// memory ceiling instead of growing without bound.
func TestSteadyStateTracingAllocatesNothing(t *testing.T) {
	cfg := testConfig(1)
	col := trace.NewCollector(1 << 7)
	cfg.Tracer = col
	run, _ := tickBatch(cfg)
	for i := 0; i < 10 && col.Dropped() == 0; i++ {
		run() // warmup until the ring has wrapped
	}
	if col.Dropped() == 0 {
		t.Fatal("warmup did not saturate the ring; enlarge the batch or shrink the ring")
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("saturated traced tick batch allocates %v times per run, want 0", allocs)
	}
}

// TestTracedRunMatchesUntraced is the core-layer differential: the same
// synthetic pipeline ticked with and without a tracer lands in the same
// state, cycle counts and CPI stacks included.
func TestTracedRunMatchesUntraced(t *testing.T) {
	runA, sysA := tickBatch(testConfig(1))
	cfgB := testConfig(1)
	cfgB.Tracer = trace.NewCollector(1 << 16)
	runB, sysB := tickBatch(cfgB)
	for i := 0; i < 5; i++ {
		runA()
		runB()
	}
	a, b := sysA.PE(0), sysB.PE(0)
	if a.Stack != b.Stack || a.Activations != b.Activations || a.Reconfigs != b.Reconfigs {
		t.Fatalf("traced PE diverged from untraced:\nuntraced: stack=%+v act=%d rec=%d\ntraced:   stack=%+v act=%d rec=%d",
			a.Stack, a.Activations, a.Reconfigs, b.Stack, b.Activations, b.Reconfigs)
	}
}
