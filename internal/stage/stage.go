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
	"fmt"

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

// InPort is the consumer side of a channel: a local queue, or the arbiter of
// a credited inter-PE queue. Name, here and on OutPort, names the queue the
// port fronts, for deadlock diagnostics.
type InPort interface {
	Len() int
	Peek() (queue.Token, bool)
	PeekAt(i int) (queue.Token, bool)
	Pop() (queue.Token, bool)
	Name() string
}

// OutPort is the producer side of a channel: a local queue, a credit port
// into another PE, or a DRM's address queue.
type OutPort interface {
	// Space returns how many tokens can currently be pushed.
	Space() int
	// Push delivers a token; it returns false when no space (or credit) is
	// available, without side effects.
	Push(t queue.Token) bool
	Name() string
}

// LocalPort adapts a *queue.Queue to both port interfaces (intra-PE queues,
// Sec. 5.3).
type LocalPort struct{ Q *queue.Queue }

func (p LocalPort) Len() int                         { return p.Q.Len() }
func (p LocalPort) Peek() (queue.Token, bool)        { return p.Q.Peek() }
func (p LocalPort) PeekAt(i int) (queue.Token, bool) { return p.Q.PeekAt(i) }
func (p LocalPort) Pop() (queue.Token, bool)         { return p.Q.Deq() }
func (p LocalPort) Space() int                       { return p.Q.Space() }
func (p LocalPort) Push(t queue.Token) bool          { return p.Q.Enq(t) }
func (p LocalPort) Name() string                     { return p.Q.Name() }

// ArbiterPort adapts the consumer side of a credited queue: dequeues return
// credits to producers.
type ArbiterPort struct{ A *queue.Arbiter }

func (p ArbiterPort) Len() int                         { return p.A.Queue().Len() }
func (p ArbiterPort) Peek() (queue.Token, bool)        { return p.A.Queue().Peek() }
func (p ArbiterPort) PeekAt(i int) (queue.Token, bool) { return p.A.Queue().PeekAt(i) }
func (p ArbiterPort) Pop() (queue.Token, bool)         { return p.A.Deq() }
func (p ArbiterPort) Name() string                     { return p.A.Queue().Name() }

// CreditOut adapts a producer-side credit port.
type CreditOut struct{ P *queue.CreditPort }

func (p CreditOut) Space() int {
	return p.P.Credits()
}
func (p CreditOut) Push(t queue.Token) bool { return p.P.Send(t) }
func (p CreditOut) Name() string            { return p.P.DestName() }

// Ctx is the environment of one firing attempt. The PE populates it each
// cycle; kernels use it to touch queues and memory.
type Ctx struct {
	Now uint64
	In  []InPort
	Out []OutPort
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

// Kernel is the functional behavior of a stage. TryFire attempts exactly one
// firing (one token group through the datapath). Kernels must be
// transactional: either complete a firing, or return a non-Fired status
// having consumed nothing.
type Kernel interface {
	Name() string
	TryFire(c *Ctx) Status
}

// KernelFunc adapts a function to the Kernel interface.
type KernelFunc struct {
	KernelName string
	Fn         func(c *Ctx) Status
}

func (k KernelFunc) Name() string          { return k.KernelName }
func (k KernelFunc) TryFire(c *Ctx) Status { return k.Fn(c) }

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

// Stage is a kernel bound to its CGRA mapping and channel endpoints,
// ready to be scheduled onto a PE.
type Stage struct {
	Kernel  Kernel
	Mapping *cgra.Mapping
	In      []InPort
	Out     []OutPort

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

	// Devirtualized port caches, set by Bind (ports are wired by struct
	// literal and never reassigned afterwards). The per-cycle hot paths —
	// InputWork and OutputsBlocked run for every resident stage on every
	// blocked cycle — read occupancy through these concrete pointers
	// instead of interface dispatch.
	inQs    []*queue.Queue      // LocalPort / ArbiterPort input backing queues
	outQs   []*queue.Queue      // LocalPort output backing queues
	outCred []*queue.CreditPort // CreditOut output ports
}

// Bind resolves the ports to their backing queues and credit ports, and
// fails on any other port type: a kernel that parks idle PEs cannot see
// readiness hidden behind one. PE.AddStage calls it; InputWork,
// OutputsBlocked and Ready are valid only after it succeeds.
func (s *Stage) Bind() error {
	s.inQs = make([]*queue.Queue, len(s.In))
	for i, in := range s.In {
		switch p := in.(type) {
		case LocalPort:
			s.inQs[i] = p.Q
		case ArbiterPort:
			s.inQs[i] = p.A.Queue()
		default:
			return fmt.Errorf("stage %q: in-port %d (%s) has unsupported type %T", s.Name(), i, in.Name(), in)
		}
	}
	s.outQs = make([]*queue.Queue, len(s.Out))
	s.outCred = make([]*queue.CreditPort, len(s.Out))
	for i, out := range s.Out {
		switch p := out.(type) {
		case LocalPort:
			s.outQs[i] = p.Q
		case CreditOut:
			s.outCred[i] = p.P
		default:
			return fmt.Errorf("stage %q: out-port %d (%s) has unsupported type %T", s.Name(), i, out.Name(), out)
		}
	}
	return nil
}

// Name returns the kernel name.
func (s *Stage) Name() string { return s.Kernel.Name() }

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
	for _, q := range s.inQs {
		n += q.Len()
	}
	if s.StateWork != nil {
		n += s.StateWork()
	}
	return n
}

// OutputsBlocked reports whether any output port currently has no space.
func (s *Stage) OutputsBlocked() bool {
	for i, q := range s.outQs {
		if q != nil && q.Space() == 0 || q == nil && s.outCred[i].Credits() == 0 {
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
