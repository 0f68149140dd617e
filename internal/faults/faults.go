// Package faults injects deterministic faults into a running core.System so
// the robustness layer's detectors — the progress watchdog and the live
// invariant audit — can be proven to fire. Each injector models one way a
// real machine (or a buggy model of one) wedges: a stage that silently
// stops firing, a flow-control credit that is withheld, a grant that is
// dropped on the floor, a configuration load that never arrives.
//
// Injection is deterministic: trigger cycles and target choices come from a
// Plan seeded with sim's xorshift RNG, so a faulted run reproduces
// bit-identically — the same detector fires at the same cycle with the same
// report. Nothing in this package is used by healthy simulations.
package faults

import (
	"fmt"

	"fifer/internal/core"
	"fifer/internal/queue"
	"fifer/internal/sim"
	"fifer/internal/stage"
)

// Injector is one fault: Arm attaches it to a system before Run; the fault
// takes effect at its trigger cycle via the system's per-cycle hook.
type Injector interface {
	// Name identifies the injector and its target in reports and tests.
	Name() string
	// Arm validates the target and hooks the fault into sys.
	Arm(sys *core.System) error
}

// Plan is a deterministic collection of injectors sharing one seeded RNG.
type Plan struct {
	rng       *sim.Rand
	injectors []Injector
}

// NewPlan returns an empty plan whose random choices derive from seed.
func NewPlan(seed uint64) *Plan { return &Plan{rng: sim.NewRand(seed)} }

// Rand exposes the plan's RNG for picking targets deterministically.
func (p *Plan) Rand() *sim.Rand { return p.rng }

// TriggerBetween draws a trigger cycle in [lo, hi) from the plan's RNG.
func (p *Plan) TriggerBetween(lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + p.rng.Uint64()%(hi-lo)
}

// Add appends an injector to the plan.
func (p *Plan) Add(inj Injector) *Plan {
	p.injectors = append(p.injectors, inj)
	return p
}

// Arm arms every injector in order, stopping at the first failure.
func (p *Plan) Arm(sys *core.System) error {
	for _, inj := range p.injectors {
		if err := inj.Arm(sys); err != nil {
			return fmt.Errorf("faults: arming %s: %w", inj.Name(), err)
		}
	}
	return nil
}

// StuckStage makes a stage stop firing from cycle At onward while keeping
// its input work visible — the model of a hung datapath. Detector: the
// progress watchdog (the stage's queues back up until nothing moves).
type StuckStage struct {
	PE    int
	Stage int
	At    uint64
}

// Name implements Injector.
func (f StuckStage) Name() string {
	return fmt.Sprintf("stuck-stage(pe%d/stage%d@%d)", f.PE, f.Stage, f.At)
}

// Arm wraps the target stage's Fire with the fault gate. The gate is
// thrown from the per-cycle hook, like every other fault: a kernel whose
// status changed with the clock alone would be invisible to a PE parked
// before the trigger cycle.
func (f StuckStage) Arm(sys *core.System) error {
	if f.PE < 0 || f.PE >= len(sys.PEs) {
		return fmt.Errorf("no pe%d in a %d-PE system", f.PE, len(sys.PEs))
	}
	stages := sys.PE(f.PE).Stages()
	if f.Stage < 0 || f.Stage >= len(stages) {
		return fmt.Errorf("pe%d has no stage %d", f.PE, f.Stage)
	}
	st := stages[f.Stage]
	healthy := st.Fire
	stuck := false
	st.Fire = func(c *stage.Ctx) stage.Status {
		if stuck {
			return stage.NoOutput // hung datapath: work visible, nothing moves
		}
		return healthy(c)
	}
	sys.OnCycle(func(_ *core.System, now uint64) {
		stuck = now >= f.At
	})
	return nil
}

// WithheldCredits steals N flow-control credits from one producer port of
// an inter-PE queue at cycle At — the model of a credit-return link that
// silently loses messages. Detector: the live audit's credit-conservation
// check (total credits no longer cover the queue capacity).
type WithheldCredits struct {
	Arbiter int // index into sys.Arbiters()
	Port    int
	N       int
	At      uint64
}

// Name implements Injector.
func (f WithheldCredits) Name() string {
	return fmt.Sprintf("withheld-credits(arb%d/port%d n=%d @%d)", f.Arbiter, f.Port, f.N, f.At)
}

// Arm hooks the theft; it steals only credits the port actually holds,
// retrying each cycle until N have been withheld.
func (f WithheldCredits) Arm(sys *core.System) error {
	arb, err := arbiterAt(sys, f.Arbiter)
	if err != nil {
		return err
	}
	if f.Port < 0 || f.Port >= arb.Ports() {
		return fmt.Errorf("arbiter %q has no port %d", arb.Queue().Name(), f.Port)
	}
	if f.N <= 0 {
		return fmt.Errorf("nothing to withhold (N=%d)", f.N)
	}
	port := arb.Port(f.Port)
	left := f.N
	sys.OnCycle(func(_ *core.System, now uint64) {
		if left == 0 || now < f.At {
			return
		}
		steal := port.Credits()
		if steal > left {
			steal = left
		}
		if steal > 0 {
			port.FaultAdjustCredits(-steal)
			left -= steal
		}
	})
	return nil
}

// DroppedGrant discards one buffered token of an inter-PE queue without
// returning its credit at cycle At — the model of a lost grant. Detector:
// the live audit's credit-conservation check (more credited senders
// recorded than tokens buffered).
type DroppedGrant struct {
	Arbiter int
	At      uint64
}

// Name implements Injector.
func (f DroppedGrant) Name() string {
	return fmt.Sprintf("dropped-grant(arb%d@%d)", f.Arbiter, f.At)
}

// Arm hooks the drop; it waits for a cycle where every buffered token is
// credited so the loss is unambiguous, then drops exactly one.
func (f DroppedGrant) Arm(sys *core.System) error {
	arb, err := arbiterAt(sys, f.Arbiter)
	if err != nil {
		return err
	}
	done := false
	sys.OnCycle(func(_ *core.System, now uint64) {
		if done || now < f.At {
			return
		}
		q := arb.Queue()
		if q.Len() > 0 && arb.CreditedBuffered() == q.Len() {
			done = arb.FaultDropToken()
		}
	})
	return nil
}

// DelayedReconfig extends the first reconfiguration in progress at or after
// cycle At by Extra cycles — the model of a configuration load that never
// completes. Detector: the progress watchdog (the PE freezes mid-switch).
type DelayedReconfig struct {
	PE    int
	Extra uint64
	At    uint64
}

// Name implements Injector.
func (f DelayedReconfig) Name() string {
	return fmt.Sprintf("delayed-reconfig(pe%d +%d @%d)", f.PE, f.Extra, f.At)
}

// Arm hooks the delay; it retries each cycle until it catches the PE inside
// a reconfiguration period.
func (f DelayedReconfig) Arm(sys *core.System) error {
	if f.PE < 0 || f.PE >= len(sys.PEs) {
		return fmt.Errorf("no pe%d in a %d-PE system", f.PE, len(sys.PEs))
	}
	pe := sys.PE(f.PE)
	done := false
	sys.OnCycle(func(_ *core.System, now uint64) {
		if done || now < f.At {
			return
		}
		done = pe.FaultDelayReconfig(now, f.Extra)
	})
	return nil
}

// StalledDRM pushes every response of one decoupled reference machine —
// in flight and issued afterwards — out by Extra cycles from cycle At
// onward: the model of a memory controller that stops answering one
// client. Detector: the progress watchdog (the DRM's accesses sit in
// flight forever, its consumers starve, and upstream stages back up behind
// its address queue).
type StalledDRM struct {
	PE    int
	DRM   int
	Extra uint64
	At    uint64
}

// Name implements Injector.
func (f StalledDRM) Name() string {
	return fmt.Sprintf("stalled-drm(pe%d/drm%d +%d @%d)", f.PE, f.DRM, f.Extra, f.At)
}

// Arm hooks the stall; it fires once at cycle At and the delay sticks to
// every response issued from then on.
func (f StalledDRM) Arm(sys *core.System) error {
	if f.PE < 0 || f.PE >= len(sys.PEs) {
		return fmt.Errorf("no pe%d in a %d-PE system", f.PE, len(sys.PEs))
	}
	pe := sys.PE(f.PE)
	if f.DRM < 0 || f.DRM >= len(pe.DRMs) {
		return fmt.Errorf("pe%d has no drm%d", f.PE, f.DRM)
	}
	if f.Extra == 0 {
		return fmt.Errorf("nothing to stall (Extra=0)")
	}
	d := pe.DRM(f.DRM)
	done := false
	sys.OnCycle(func(_ *core.System, now uint64) {
		if done || now < f.At {
			return
		}
		done = true
		d.FaultDelayResponses(f.Extra)
	})
	return nil
}

// arbiterAt fetches the i-th inter-PE arbiter with bounds checking.
func arbiterAt(sys *core.System, i int) (*queue.Arbiter, error) {
	arbs := sys.Arbiters()
	if i < 0 || i >= len(arbs) {
		return nil, fmt.Errorf("no arbiter %d in a system with %d inter-PE queues", i, len(arbs))
	}
	return arbs[i], nil
}
