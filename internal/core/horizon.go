package core

import (
	"fifer/internal/queue"
	"fifer/internal/trace"
)

// Event-horizon kernel: wake cycles, per-PE parking, lazy catch-up
// (DESIGN.md §10).
//
// Every PE.Tick publishes a wake cycle: the earliest future cycle at which
// the PE — fabric or any DRM — could act (fire, activate, begin or end a
// reconfiguration, issue or deliver a DRM access, move a token). A
// reconfiguring or stalled fabric wakes at reconfigUntil or stallUntil, a
// fabric blocked with a ready stage cooling down at the soonest expiry, a
// DRM with an access in flight at the head's ready cycle, anything that
// acted at now+1, and anything only another component can unblock never
// (horizonNever).
//
// A PE whose wake lies in the future is bit-exactly inert unless something
// arrives from outside, so Run parks it: the sweep skips its tick and
// peCatchUp later replays the fixed charges it owes — one CPI-bucket
// increment per cycle, blocked-DRM OutFull counts, the sliding scheduler
// cooldown. The arrival edges are the arbiter's credit hook
// (exchangeHooks): a credited send marks the consumer dirty, so it ticks
// this cycle if the ascending sweep has not passed it and next cycle
// otherwise; a credit return marks the producing port's PE dirty; a
// stage.Gate release marks the gated stage's PE dirty (PE.AddStage);
// program injection at quiescence marks every PE dirty. None of these
// changes anything peCatchUp replays, so none settles first: the marked
// PE's own tick catches it up. A stage's channel ends (stage.In,
// stage.Out) can only be local queues or credited queues, so no readiness
// change escapes these edges.
//
// Observation boundaries settle every PE first; the watchdog signature
// reads only monotonic counters and needs no settling. When every PE is
// parked past the next cycle, Run jumps the clock to min(wake, next
// boundary) and nothing else. OnCycle hooks and Config.NoFastForward force
// every PE to settle and tick each cycle: the naive loop exactly.

// horizonNever is the wake cycle of a component that cannot act again
// without an external state change.
const horizonNever = ^uint64(0)

// KernelStats returns the run loop's own work counters, accumulated over
// every Run of this system. They legitimately differ between the default
// kernel and the NoFastForward oracle, so they live outside Result:
// journals, goldens and the differential suites never see them.
func (s *System) KernelStats() trace.KernelStats {
	return trace.KernelStats{PEs: len(s.PEs), Cycles: s.Cycle, Ticks: s.ticks,
		Jumped: s.jumped, CatchUps: s.catchUps}
}

// exchangeHooks wires one inter-PE arbiter into parking: a grant (send)
// marks the consumer PE, a return marks the producing port's PE, and both
// are traced when tracing is on.
func (s *System) exchangeHooks(a *queue.Arbiter, consumer int) {
	cpe := s.PEs[consumer]
	// portPE[p] is the PE that was ticking when port p first sent; a port
	// has exactly one producer PE, so the binding is stable. -1: never sent.
	portPE := make([]int, a.Ports())
	for i := range portPE {
		portPE[i] = -1
	}
	a.SetCreditHook(func(port int, granted bool) {
		// Neither a grant nor a return changes anything peCatchUp replays,
		// so neither settles first: the PE that must act just has to tick.
		if granted {
			if portPE[port] < 0 {
				portPE[port] = s.curPE
			}
			cpe.dirty = true
		} else if p := portPE[port]; p >= 0 {
			s.PEs[p].dirty = true
		} else {
			for _, pe := range s.PEs {
				pe.dirty = true
			}
		}
		if s.tracer != nil {
			k := trace.KindCreditReturn
			if granted {
				k = trace.KindCreditGrant
			}
			s.tracer.Emit(trace.Event{Cycle: s.Cycle, PE: consumer, Kind: k, Name: a.Queue().Name(), Arg: uint64(port)})
		}
	})
}

// peCatchUp replays one parked PE's deferred per-cycle accounting for cycles
// [caughtUp, to) against its frozen state.
func (s *System) peCatchUp(pe *PE, to uint64) {
	from := pe.caughtUp
	if to <= from {
		return
	}
	pe.advanceInert(to, to-from)
	pe.caughtUp = to
	s.catchUps++
}

// settle brings every PE's deferred accounting up to the current cycle.
func (s *System) settle() {
	for _, pe := range s.PEs {
		s.peCatchUp(pe, s.Cycle)
	}
}

// advanceInert applies k inert cycles (ending at cycle to-1) to one PE.
func (p *PE) advanceInert(to, k uint64) {
	switch p.inertBucket {
	case bucketReconfig:
		p.Stack.Reconfig += k
	case bucketStall:
		p.Stack.Stall += k
	case bucketQueue:
		p.Stack.Queue += k
	case bucketIdle:
		p.Stack.Idle += k
	}
	if p.slideCooldown {
		// The naive loop re-arms the fruitless activation's cooldown every
		// blocked cycle; only the final value is ever observable.
		p.cooldownUntil[p.active] = (to - 1) + schedCooldown
	}
	for _, d := range p.DRMs {
		if d.outBlocked {
			d.OutFull += k
		}
	}
}
