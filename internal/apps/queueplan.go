package apps

import (
	"fifer/internal/core"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// QueuePlan sizes and allocates an application's queues. Each queue lives in
// its consumer PE's queue memory; a PE's SRAM budget is divided among the
// queues it hosts in proportion to their weights. This reproduces the
// paper's property that the baseline and Fifer have the same queue buffer
// per PE, so Fifer — hosting a whole pipeline per PE — gets less effective
// space per queue (Sec. 5.3), while the static pipeline's one-stage PEs get
// fewer, larger queues.
type QueuePlan struct {
	sys  *core.System
	reqs []*QueueRef
}

// QueueRef is one planned queue. After Build, In is the consumer-side port
// and Out(i) the i-th producer's port.
type QueueRef struct {
	Name      string
	Consumer  int
	Weight    int
	Producers []int // producer PE ids; empty or all Consumer means purely local

	q   *queue.Queue
	arb *queue.Arbiter
}

// NewQueuePlan starts a plan over sys.
func NewQueuePlan(sys *core.System) *QueuePlan {
	return &QueuePlan{sys: sys}
}

// Request registers a queue hosted on consumerPE. producers lists the PE of
// each producer endpoint (one port per entry). The queue gets credit flow
// control when any producer is on another PE; otherwise, empty list
// included, it is a plain local queue and every Out(i) is its Local port.
func (qp *QueuePlan) Request(consumerPE int, name string, weight int, producers []int) *QueueRef {
	if weight <= 0 {
		weight = 1
	}
	r := &QueueRef{Name: name, Consumer: consumerPE, Weight: weight, Producers: producers}
	qp.reqs = append(qp.reqs, r)
	return r
}

// Build allocates every requested queue out of its host PE's SRAM.
func (qp *QueuePlan) Build() {
	weightByPE := make(map[int]int)
	for _, r := range qp.reqs {
		weightByPE[r.Consumer] += r.Weight
	}
	for _, r := range qp.reqs {
		pe := qp.sys.PE(r.Consumer)
		budgetTokens := qp.sys.Cfg.QueueMemBytes / queue.TokenBytes
		tokens := budgetTokens * r.Weight / weightByPE[r.Consumer]
		if tokens < 4 {
			tokens = 4
		}
		needsCredits := false
		for _, p := range r.Producers {
			if p != r.Consumer {
				needsCredits = true
			}
		}
		if needsCredits {
			if tokens < 2*len(r.Producers) {
				tokens = 2 * len(r.Producers) // at least two credits per producer
			}
			r.arb = qp.sys.InterPEQueue(r.Consumer, r.Name, tokens, len(r.Producers))
		} else {
			r.q = pe.AllocQueue(r.Name, tokens)
		}
	}
}

// In returns the consumer end.
func (r *QueueRef) In() stage.In {
	if r.arb != nil {
		return stage.CreditedIn(r.arb)
	}
	return stage.LocalIn(r.q)
}

// Out returns producer i's end (i indexes the Producers slice). For purely
// local queues, any index returns the local end.
func (r *QueueRef) Out(i int) stage.Out {
	if r.arb != nil {
		return stage.CreditOut(r.arb.Port(i))
	}
	return stage.LocalOut(r.q)
}

// Local returns the local producer end, bypassing credits (for Program
// seeding and DRM outputs feeding a same-PE queue).
func (r *QueueRef) Local() stage.Out { return stage.LocalOut(r.Queue()) }

// Queue exposes the underlying queue (stats, invariant checks).
func (r *QueueRef) Queue() *queue.Queue {
	if r.arb != nil {
		return r.arb.Queue()
	}
	return r.q
}
