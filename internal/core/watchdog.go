package core

import "fmt"

// progressSig is a snapshot of every monotonic activity counter in the
// system. Two equal snapshots taken at different cycles prove that nothing
// — no datapath firing, no queue enqueue or dequeue, no memory access, no
// reconfiguration completion — happened in between: the definition of a
// deadlocked machine. Program rounds are deliberately excluded so a control
// program that spins without injecting work is caught too.
type progressSig struct {
	firings     uint64 // datapath firings across all stages
	activations uint64 // completed (re)configurations
	queueFlux   uint64 // enqueues + dequeues across all queue-memory queues
	drmFlux     uint64 // DRM accesses, deliveries, and address-queue traffic
	memAccesses uint64 // L1 accesses (covers coupled loads and config fetches)
}

// progressSig computes the current snapshot. It only reads statistics
// counters the simulation already maintains, so taking a snapshot cannot
// perturb results.
func (s *System) progressSig() progressSig {
	var sig progressSig
	for _, pe := range s.PEs {
		sig.activations += pe.Activations
		for _, st := range pe.stages {
			sig.firings += st.Firings
		}
		for _, q := range pe.QMem.Queues() {
			sig.queueFlux += q.Enqueued + q.Dequeued
		}
		for _, d := range pe.DRMs {
			sig.drmFlux += d.Accesses + d.Emitted + d.in.Enqueued + d.in.Dequeued
		}
	}
	for _, l1 := range s.Hier.L1s {
		sig.memAccesses += l1.Accesses
	}
	return sig
}

// WaitEdge is one edge of the wait-for summary: Waiter is stuck until
// WaitsOn changes state, for Reason.
type WaitEdge struct {
	Waiter  string // e.g. "pe1/fetch" or "pe0.drm2"
	WaitsOn string // queue name, "memory", "reconfiguration", "fabric"
	Reason  string
}

func (e WaitEdge) String() string {
	return fmt.Sprintf("%s -> %s (%s)", e.Waiter, e.WaitsOn, e.Reason)
}

// WaitFor computes the wait-for summary: for every blocked component, which
// stage, queue, DRM, or mechanism it is waiting on. It reflects the current
// cycle's state and is meaningful whenever the system is stuck (watchdog
// trips, MaxCycles exhaustion); on a healthy system it reports transient
// back-pressure.
func (s *System) WaitFor() []WaitEdge {
	now := s.Cycle
	var edges []WaitEdge
	for _, pe := range s.PEs {
		peName := fmt.Sprintf("pe%d", pe.ID)
		if now < pe.reconfigUntil || pe.pending >= 0 {
			edges = append(edges, WaitEdge{
				Waiter:  peName,
				WaitsOn: "reconfiguration",
				Reason:  fmt.Sprintf("reconfiguring until cycle %d", pe.reconfigUntil),
			})
		}
		if now < pe.stallUntil {
			edges = append(edges, WaitEdge{
				Waiter:  peName,
				WaitsOn: "memory",
				Reason:  fmt.Sprintf("fabric frozen by a coupled miss until cycle %d", pe.stallUntil),
			})
		}
		for _, st := range pe.stages {
			waiter := peName + "/" + st.Name
			if g := st.Gate; g != nil && g.Full() {
				// A full gate hides queued input from InputWork.
				for _, in := range st.In {
					if in.Len() > 0 {
						edges = append(edges, WaitEdge{
							Waiter:  waiter,
							WaitsOn: "gate",
							Reason:  fmt.Sprintf("%d/%d", g.Held(), g.Limit),
						})
						break
					}
				}
				continue
			}
			if st.InputWork() == 0 {
				continue // starved stages show up via their producers' edges
			}
			if st.OutputsBlocked() {
				for _, out := range st.Out {
					if out.Space() == 0 {
						edges = append(edges, WaitEdge{
							Waiter:  waiter,
							WaitsOn: out.Name(),
							Reason:  "output full (no space or credits)",
						})
					}
				}
				continue
			}
			// The stage has work and nominal output space yet is not
			// firing. A kernel's firing may need several output slots (a
			// multi-token push, a SIMD group), so the tightest output is
			// the most likely blocker; with no outputs at all, the kernel
			// itself is stuck.
			if len(st.Out) == 0 {
				edges = append(edges, WaitEdge{
					Waiter:  waiter,
					WaitsOn: "fabric",
					Reason:  fmt.Sprintf("%d tokens of input work but not firing", st.InputWork()),
				})
				continue
			}
			tight := st.Out[0]
			for _, out := range st.Out[1:] {
				if out.Space() < tight.Space() {
					tight = out
				}
			}
			edges = append(edges, WaitEdge{
				Waiter:  waiter,
				WaitsOn: tight.Name(),
				Reason: fmt.Sprintf("not firing with %d tokens of input work; tightest output has %d slots/credits left",
					st.InputWork(), tight.Space()),
			})
		}
		for _, d := range pe.DRMs {
			if !d.Busy() {
				continue
			}
			switch {
			case d.out.Space() == 0:
				edges = append(edges, WaitEdge{
					Waiter:  d.Name(),
					WaitsOn: d.out.Name(),
					Reason:  "output full (no space or credits)",
				})
			case d.inflight.Len() > 0:
				edges = append(edges, WaitEdge{
					Waiter:  d.Name(),
					WaitsOn: "memory",
					Reason:  fmt.Sprintf("%d accesses in flight", d.inflight.Len()),
				})
			default:
				edges = append(edges, WaitEdge{
					Waiter:  d.Name(),
					WaitsOn: "input",
					Reason:  fmt.Sprintf("%d buffered addresses", d.in.Len()),
				})
			}
		}
	}
	return edges
}
