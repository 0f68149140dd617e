// Package stage defines the pipeline-stage abstraction that Fifer executes:
// the contract between an application's decoupled stages (Sec. 4) and the
// processing elements that run them (Sec. 5). A stage couples a functional
// kernel (what one firing computes) with a CGRA mapping (how the datapath
// occupies the fabric: pipeline depth, SIMD replication, configuration
// size). This package is the moral equivalent of the paper's per-stage
// compilation flow (Fig. 5) with the LLVM front end replaced by a builder
// API; see DESIGN.md §5.
package stage

import (
	"fifer/internal/cgra"
	"fifer/internal/mem"
	"fifer/internal/queue"
)

// Status is the outcome of one firing attempt.
type Status int

const (
	// Fired: the kernel consumed inputs and produced outputs.
	Fired Status = iota
	// NoInput: a required input queue was empty.
	NoInput
	// NoOutput: a required output queue (or DRM input) was full.
	NoOutput
	// Sleep: the stage has no work by its own logic (e.g. waiting for a
	// control token that has not arrived).
	Sleep
)

func (s Status) String() string {
	switch s {
	case Fired:
		return "fired"
	case NoInput:
		return "no-input"
	case NoOutput:
		return "no-output"
	case Sleep:
		return "sleep"
	}
	return "unknown"
}

// In is the consumer end of a channel: a queue in the stage's own PE's
// queue memory (Sec. 5.3), or a credited inter-PE queue (Sec. 5.6) read
// through its Arbiter so that dequeues return credits. Those are the only
// channels whose readiness changes the parking kernel can see (DESIGN.md
// §10), so they are the only ones that can be built.
type In struct {
	q   *queue.Queue
	arb *queue.Arbiter // nil for a local queue
}

// LocalIn reads a queue on the stage's own PE.
func LocalIn(q *queue.Queue) In { return In{q: q} }

// CreditedIn reads a credited inter-PE queue through its arbiter.
func CreditedIn(a *queue.Arbiter) In { return In{q: a.Queue(), arb: a} }

func (p In) Len() int                         { return p.q.Len() }
func (p In) Peek() (queue.Token, bool)        { return p.q.Peek() }
func (p In) PeekAt(i int) (queue.Token, bool) { return p.q.PeekAt(i) }

// Name names the queue, for deadlock diagnostics.
func (p In) Name() string { return p.q.Name() }

// Pop dequeues the head token, returning its credit when the queue is
// credited.
func (p In) Pop() (queue.Token, bool) {
	if p.arb != nil {
		return p.arb.Deq()
	}
	return p.q.Deq()
}

// Out is the producer end of a channel: a queue on the producer's own PE
// (a DRM's address queue is one), or a credit port into another PE's
// queue.
type Out struct {
	q    *queue.Queue
	port *queue.CreditPort // nil for a local queue
}

// LocalOut pushes into a queue on the producer's own PE.
func LocalOut(q *queue.Queue) Out { return Out{q: q} }

// CreditOut sends through a credit port into another PE's queue.
func CreditOut(p *queue.CreditPort) Out { return Out{port: p} }

// Space returns how many tokens can currently be pushed: free slots, or
// credits.
func (p Out) Space() int {
	if p.port != nil {
		return p.port.Credits()
	}
	return p.q.Space()
}

// Push delivers a token; it returns false when no space (or credit) is
// available, without side effects.
func (p Out) Push(t queue.Token) bool {
	if p.port != nil {
		return p.port.Send(t)
	}
	return p.q.Enq(t)
}

// Name names the destination queue, for deadlock diagnostics.
func (p Out) Name() string {
	if p.port != nil {
		return p.port.DestName()
	}
	return p.q.Name()
}

// Ctx is the environment of one firing attempt. The PE populates it each
// cycle; kernels use it to touch queues and memory.
type Ctx struct {
	Now uint64
	In  []In
	Out []Out
	Mem *mem.Port

	// ExtraStall accumulates coupled-load miss penalties incurred by this
	// firing: cycles beyond the L1 hit latency (which is covered by the
	// pipelined datapath). The PE freezes the fabric for the maximum
	// ExtraStall across the cycle's firings (Sec. 5.4: coupled interface
	// "stalls the PE on cache misses").
	ExtraStall uint64
	// FiredCtrl is set by kernels when the firing consumed or produced a
	// control token; the PE then stops grouping further SIMD firings this
	// cycle (Sec. 5.6: "control values are always handled serially").
	FiredCtrl bool
}

// Load performs a coupled load: functional value plus stall accounting.
func (c *Ctx) Load(a mem.Addr) uint64 {
	v, ready := c.Mem.Load(c.Now, a)
	if extra := ready - c.Now - c.Mem.L1().Latency(); extra > c.ExtraStall {
		c.ExtraStall = extra
	}
	return v
}

// Store performs a coupled store with the same stall accounting as Load.
func (c *Ctx) Store(a mem.Addr, v uint64) {
	ready := c.Mem.Store(c.Now, a, v)
	if extra := ready - c.Now - c.Mem.L1().Latency(); extra > c.ExtraStall {
		c.ExtraStall = extra
	}
}

// Gate is a counting throttle for a cyclic pipeline (Silo's traversal
// loop): the gated stage Acquires a slot per unit of work it admits into
// the loop, a later stage Releases it when the work leaves, and a full gate
// hides the gated stage's input work, so the loop cannot fill its own
// queues.
type Gate struct {
	Limit     int
	held      int
	onRelease []func()
}

// Full reports whether every slot is held; Held counts the held slots.
func (g *Gate) Full() bool { return g.held >= g.Limit }
func (g *Gate) Held() int  { return g.held }

// Acquire takes a slot; Release returns one and runs the OnRelease hooks.
func (g *Gate) Acquire() { g.held++ }
func (g *Gate) Release() {
	g.held--
	for _, f := range g.onRelease {
		f()
	}
}

// OnRelease registers f to run after every Release; the PE hosting the
// gated stage uses it to learn that the stage may have become ready.
func (g *Gate) OnRelease(f func()) { g.onRelease = append(g.onRelease, f) }

// Stage is a kernel bound to its CGRA mapping and channel ends, ready to be
// scheduled onto a PE.
type Stage struct {
	Name string
	// Fire is the kernel: it attempts exactly one firing (one token group
	// through the datapath). It must be transactional: either complete a
	// firing, or return a non-Fired status having consumed nothing.
	Fire    func(c *Ctx) Status
	Mapping *cgra.Mapping
	In      []In
	Out     []Out

	// StateWork, when non-nil, reports work held in the stage's fabric
	// registers (e.g. the remainder of an active edge-list scan) that queue
	// occupancies cannot see. The scheduler and the system's quiescence
	// detector both rely on it: a stage with register-held work is not done.
	StateWork func() int

	// Gate, when non-nil, throttles the stage; its kernel Acquires a slot
	// per admitted unit of work and sleeps while the gate is full.
	Gate *Gate

	// Firings counts successful firings (for utilization stats).
	Firings uint64
}

// Width returns the SIMD firing width (replicated datapaths).
func (s *Stage) Width() int {
	if s.Mapping == nil || s.Mapping.Replicas < 1 {
		return 1
	}
	return s.Mapping.Replicas
}

// Depth returns the datapath pipeline depth in cycles.
func (s *Stage) Depth() int {
	if s.Mapping == nil {
		return 1
	}
	return s.Mapping.Depth
}

// InputWork returns the tokens waiting on the stage's inputs plus any
// register-held work — the scheduler's "amount of work available" (Sec.
// 5.2) — or zero while the stage's gate is full.
func (s *Stage) InputWork() int {
	if s.Gate != nil && s.Gate.Full() {
		return 0
	}
	n := 0
	for _, in := range s.In {
		n += in.Len()
	}
	if s.StateWork != nil {
		n += s.StateWork()
	}
	return n
}

// OutputsBlocked reports whether any output port currently has no space.
func (s *Stage) OutputsBlocked() bool {
	for _, out := range s.Out {
		if out.Space() == 0 {
			return true
		}
	}
	return false
}

// Ready reports whether the scheduler may select this stage: it has input
// work and no output is hard-blocked.
func (s *Stage) Ready() bool {
	return s.InputWork() > 0 && !s.OutputsBlocked()
}
