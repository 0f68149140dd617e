package core

import (
	"fmt"

	"fifer/internal/queue"
)

// AuditLive validates the invariants that must hold at every cycle of a
// healthy simulation (unlike CheckInvariants, which also asserts end-of-run
// quiescence). Run calls it every Cfg.AuditCycles cycles; fault-injection
// tests call it directly. It returns nil or an error wrapping ErrInvariant
// that names the failing invariant and component.
//
// The checks, in order:
//
//   - cpi-accounting: every PE's CPI stack sums to the elapsed cycles.
//   - queue-occupancy: no queue holds more tokens than its capacity, and
//     enqueue/dequeue counters reconcile with the buffered count.
//   - sram-accounting: per-PE queue SRAM usage equals the sum of allocated
//     queue footprints and fits the configured budget.
//   - credit-conservation: every arbiter's outstanding credits plus pinned
//     credits equal its queue capacity; no port holds negative credits; no
//     more credited senders are recorded than tokens buffered.
//   - drm-inflight: no DRM exceeds its outstanding-access bound.
//   - gate-count: every stage gate holds between 0 and Limit slots.
func (s *System) AuditLive() error {
	for _, pe := range s.PEs {
		if total := pe.Stack.Total(); total != s.Cycle {
			return auditErr("cpi-accounting", "pe%d: CPI stack sums to %d, want %d cycles",
				pe.ID, total, s.Cycle)
		}
		used := pe.QMem.TotalBytes() - pe.QMem.FreeBytes()
		footprint := 0
		for _, q := range pe.QMem.Queues() {
			if err := auditQueue(q); err != nil {
				return err
			}
			footprint += q.Cap() * queue.TokenBytes
		}
		if footprint != used || used > pe.QMem.TotalBytes() {
			return auditErr("sram-accounting", "pe%d: queues occupy %d B but %d B are accounted (budget %d B)",
				pe.ID, footprint, used, pe.QMem.TotalBytes())
		}
		if inc, rescan, ok := pe.QMem.CheckBuffered(); !ok {
			return auditErr("queue-occupancy", "pe%d: incremental buffered count %d != rescan %d",
				pe.ID, inc, rescan)
		}
		for _, d := range pe.DRMs {
			if err := auditQueue(d.in); err != nil {
				return err
			}
			// A scan or stride that completes its range pushes the data
			// token and its boundary control token in one issue, so the
			// reorder buffer can briefly hold one entry beyond the
			// outstanding-access bound; anything past that is corruption.
			if got := d.inflight.Len(); got > d.max+1 {
				return auditErr("drm-inflight", "%s: %d entries in flight, bound is %d (+1 boundary slack)",
					d.Name(), got, d.max)
			}
		}
		for _, st := range pe.stages {
			if g := st.Gate; g != nil && (g.Held() < 0 || g.Held() > g.Limit) {
				return auditErr("gate-count", "pe%d/%s: gate holds %d slots, limit %d",
					pe.ID, st.Name(), g.Held(), g.Limit)
			}
		}
	}
	for _, a := range s.arbiters {
		q := a.Queue()
		if got, want := a.TotalCredits(), q.Cap(); got != want {
			return auditErr("credit-conservation", "arbiter %q: %d credits outstanding, want %d",
				q.Name(), got, want)
		}
		for i := 0; i < a.Ports(); i++ {
			if c := a.Port(i).Credits(); c < 0 {
				return auditErr("credit-conservation", "arbiter %q port %d: negative credit count %d",
					q.Name(), i, c)
			}
		}
		if credited, buffered := a.CreditedBuffered(), q.Len(); credited > buffered {
			return auditErr("credit-conservation", "arbiter %q: %d credited senders recorded but only %d tokens buffered (dropped grant?)",
				q.Name(), credited, buffered)
		}
	}
	return nil
}

// auditQueue checks one queue's occupancy bounds and flux accounting.
func auditQueue(q *queue.Queue) error {
	if q.Len() < 0 || q.Len() > q.Cap() {
		return auditErr("queue-occupancy", "queue %q: %d tokens buffered, capacity %d",
			q.Name(), q.Len(), q.Cap())
	}
	if q.Enqueued-q.Dequeued != uint64(q.Len()) {
		return auditErr("queue-occupancy", "queue %q: %d enqueued - %d dequeued != %d buffered",
			q.Name(), q.Enqueued, q.Dequeued, q.Len())
	}
	return nil
}

// auditErr wraps ErrInvariant with the invariant's name and detail.
func auditErr(invariant, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrInvariant, invariant, fmt.Sprintf(format, args...))
}
