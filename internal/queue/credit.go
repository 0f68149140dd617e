package queue

import "fmt"

// CreditPort is the producer-side endpoint of an inter-PE queue with
// credit-based flow control (Sec. 5.6). Each destination queue divides its
// credits (free slots) evenly across its producers; a producer stalls when it
// runs out of credits. Credits return to the producer when the consumer
// dequeues the corresponding tokens.
//
// The model is conservative and simple: each port starts with cap/producers
// credits; Send consumes one credit and enqueues directly into the
// destination queue (link latency is folded into pipeline depth); the
// consumer's dequeues replenish credits round-robin across ports via the
// Arbiter.
type CreditPort struct {
	arb     *Arbiter
	index   int
	credits int

	// Stalls counts send attempts rejected for lack of credits.
	Stalls uint64
}

// Credits returns the port's current credit count.
func (p *CreditPort) Credits() int { return p.credits }

// DestName returns the name of the destination queue this port feeds, for
// diagnostics (deadlock wait-for edges name the queue a producer starves on).
func (p *CreditPort) DestName() string { return p.arb.dst.Name() }

// Send enqueues t into the destination queue, consuming one credit.
// It returns false without side effects when no credits are available.
func (p *CreditPort) Send(t Token) bool {
	if p.credits == 0 {
		p.Stalls++
		return false
	}
	if !p.arb.dst.Enq(t) {
		// Credits are supposed to make this impossible; a failure here means
		// credit accounting is broken. Raised as a typed Corruption so the
		// simulation core can recover it into a per-run invariant error.
		corruptf(p.arb.dst.Name(), "credit port %d: enqueue failed with %d credits held",
			p.index, p.credits)
	}
	p.credits--
	p.arb.senders.push(uint16(p.index))
	if p.arb.credit != nil {
		p.arb.credit(p.index, true)
	}
	return true
}

// Arbiter manages the consumer side of a credited queue: it owns the
// destination queue, hands out producer ports, and returns each token's
// credit to the producer that sent it as the consumer drains tokens.
type Arbiter struct {
	dst     *Queue
	ports   []*CreditPort
	senders senderRing // port index of each buffered credited token, FIFO

	// credit, when non-nil, observes credit movements: f(port, true) after
	// a send's token has landed in the destination queue and consumed one
	// of port's credits, f(port, false) after a consumer dequeue returns
	// one. Rejected sends (no credits) never invoke it. The simulation
	// kernel uses it to mark the PE that must tick next: the consumer on a
	// grant, the producer on a return. Nil costs one branch per send and
	// per credited dequeue.
	credit func(port int, granted bool)
}

// SetCreditHook registers f to observe credit grants (sends) and returns
// (consumer dequeues) on this arbiter; see the credit field for the
// callback contract.
func (a *Arbiter) SetCreditHook(f func(port int, granted bool)) { a.credit = f }

// NewArbiter wraps dst with credit flow control for nproducers producers,
// at most 65535. Credits are divided evenly; remainders go to the
// lowest-numbered ports, so all dst.Cap() slots are always covered.
func NewArbiter(dst *Queue, nproducers int) *Arbiter {
	if nproducers <= 0 {
		panic("queue: arbiter needs at least one producer")
	}
	if nproducers > maxProducers {
		panic(fmt.Sprintf("queue: arbiter has %d producers, at most %d fit a sender index", nproducers, maxProducers))
	}
	a := &Arbiter{dst: dst}
	base := dst.Cap() / nproducers
	extra := dst.Cap() % nproducers
	for i := 0; i < nproducers; i++ {
		c := base
		if i < extra {
			c++
		}
		a.ports = append(a.ports, &CreditPort{arb: a, index: i, credits: c})
	}
	return a
}

// Port returns the i-th producer port.
func (a *Arbiter) Port(i int) *CreditPort { return a.ports[i] }

// Ports returns the number of producer ports.
func (a *Arbiter) Ports() int { return len(a.ports) }

// Queue returns the consumer-side destination queue.
func (a *Arbiter) Queue() *Queue { return a.dst }

// Deq dequeues one token on behalf of the consumer and returns a credit to
// the producer that has been waiting longest (approximated round-robin).
func (a *Arbiter) Deq() (Token, bool) {
	t, ok := a.dst.Deq()
	if ok {
		a.returnCredit()
	}
	return t, ok
}

func (a *Arbiter) returnCredit() {
	if a.senders.n == 0 {
		// The token predates credit accounting (e.g. seeded directly); no
		// producer is owed a credit.
		return
	}
	idx := int(a.senders.pop())
	a.ports[idx].credits++
	if a.credit != nil {
		a.credit(idx, false)
	}
}

// CreditedBuffered returns the number of buffered tokens that arrived
// through a credit port and still pin a sender's credit. It can be less
// than the queue length (tokens seeded directly pin no credit) but never
// more; the live audit checks that inequality every period.
func (a *Arbiter) CreditedBuffered() int { return a.senders.n }

// TotalCredits returns credits held across all ports plus credits pinned by
// buffered tokens. The invariant TotalCredits == dst.Cap() holds at all
// times for queues whose every enqueue went through a port.
func (a *Arbiter) TotalCredits() int {
	total := a.senders.n
	for _, p := range a.ports {
		total += p.credits
	}
	return total
}

// maxProducers is the most producer ports an arbiter serves: the sender
// FIFO keeps each buffered token's port index in 16 bits.
const maxProducers = 1<<16 - 1

// senderRing is the arbiter's FIFO of sender port indices as a power-of-two
// ring, so a credited dequeue pops the oldest sender in O(1) however deep
// the queue is. It grows on demand, as the slice it replaces did.
type senderRing struct {
	buf  []uint16 // len(buf) is zero or a power of two
	head int
	n    int
}

func (r *senderRing) push(port uint16) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = port
	r.n++
}

// pop removes and returns the oldest sender; the ring must not be empty.
func (r *senderRing) pop() uint16 {
	port := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return port
}

func (r *senderRing) grow() {
	nb := make([]uint16, max(4, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
