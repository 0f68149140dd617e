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
// increment per cycle, the 64-cycle occupancy samples, blocked-DRM OutFull
// counts, the sliding scheduler cooldown. The arrival edges are the arbiter
// hooks (exchangeHooks): a credited send settles the consumer against the
// pre-send occupancy and marks it dirty, so it ticks this cycle if the
// ascending sweep has not passed it and next cycle otherwise; a credit
// return marks the producing port's PE dirty; a stage.Gate release marks
// the gated stage's PE dirty (PE.AddStage); program injection at
// quiescence marks every PE dirty. Neither a credit return nor a release
// changes anything peCatchUp replays, so neither settles first. Port types
// whose readiness these edges cannot see are rejected at AddStage and
// DRM.Configure.
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

// exchangeHooks wires one inter-PE arbiter into parking: sends settle and
// mark the consumer PE, returns mark the producing port's PE, and credit
// grants and returns are traced when tracing is on.
func (s *System) exchangeHooks(a *queue.Arbiter, consumer int) {
	cpe := s.PEs[consumer]
	// portPE[p] is the PE that was ticking when port p first sent; a port
	// has exactly one producer PE, so the binding is stable. -1: never sent.
	portPE := make([]int, a.Ports())
	for i := range portPE {
		portPE[i] = -1
	}
	a.SetSendHook(func(port int) {
		if portPE[port] < 0 {
			portPE[port] = s.curPE
		}
		s.peCatchUp(cpe, s.Cycle)
		cpe.dirty = true
	})
	a.SetCreditHook(func(port int, granted bool) {
		if !granted {
			// A return mutates only the producer port's credit counter —
			// nothing peCatchUp accounts — so the producer just has to tick.
			if p := portPE[port]; p >= 0 {
				s.PEs[p].dirty = true
			} else {
				for _, pe := range s.PEs {
					pe.dirty = true
				}
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
// [caughtUp, to): one CPI-bucket charge per cycle and one queue-memory
// sample per multiple of 64, against the frozen occupancy.
func (s *System) peCatchUp(pe *PE, to uint64) {
	from := pe.caughtUp
	if to <= from {
		return
	}
	pe.advanceInert(to, to-from)
	if n64 := (to+63)/64 - (from+63)/64; n64 > 0 {
		pe.QMem.SampleN(n64)
	}
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
