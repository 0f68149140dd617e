package queue

import (
	"testing"
	"testing/quick"
)

func TestQueueBasics(t *testing.T) {
	q := NewQueue("q", 4)
	if !q.Empty() || q.Full() || q.Cap() != 4 {
		t.Fatal("fresh queue state wrong")
	}
	for i := 0; i < 4; i++ {
		if !q.Enq(Data(uint64(i))) {
			t.Fatalf("enq %d failed", i)
		}
	}
	if !q.Full() || q.Space() != 0 {
		t.Fatal("queue should be full")
	}
	if q.Enq(Data(99)) {
		t.Fatal("enq into full queue succeeded")
	}
	if q.FullEvts != 1 {
		t.Fatalf("FullEvts = %d, want 1", q.FullEvts)
	}
	for i := 0; i < 4; i++ {
		tok, ok := q.Deq()
		if !ok || tok.Value != uint64(i) {
			t.Fatalf("deq %d: got %v %v", i, tok, ok)
		}
	}
	if _, ok := q.Deq(); ok {
		t.Fatal("deq from empty queue succeeded")
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue("q", 8)
	q.Enq(Ctrl(7))
	q.Enq(Data(8))
	if tok, ok := q.Peek(); !ok || !tok.Ctrl || tok.Value != 7 {
		t.Fatalf("peek = %v %v", tok, ok)
	}
	if tok, ok := q.PeekAt(1); !ok || tok.Ctrl || tok.Value != 8 {
		t.Fatalf("peekAt(1) = %v %v", tok, ok)
	}
	if _, ok := q.PeekAt(2); ok {
		t.Fatal("peekAt past end succeeded")
	}
	if q.Len() != 2 {
		t.Fatal("peek consumed tokens")
	}
}

// Property: under any interleaving of enqueues and dequeues, the dequeued
// sequence is a prefix-preserving FIFO of the enqueued sequence, and the
// wraparound ring never corrupts values.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, vals []uint64, capSeed uint8) bool {
		capacity := int(capSeed%15) + 1
		q := NewQueue("p", capacity)
		var in, out []uint64
		vi := 0
		for _, isEnq := range ops {
			if isEnq {
				v := uint64(vi)
				if vi < len(vals) {
					v = vals[vi]
				}
				if q.Enq(Data(v)) {
					in = append(in, v)
				}
				vi++
			} else if tok, ok := q.Deq(); ok {
				out = append(out, tok.Value)
			}
		}
		for q.Len() > 0 {
			tok, _ := q.Deq()
			out = append(out, tok.Value)
		}
		if len(in) != len(out) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewQueue("c", 7)
		var enq, deq uint64
		for _, op := range ops {
			if op%2 == 0 {
				if q.Enq(Data(uint64(op))) {
					enq++
				}
			} else if _, ok := q.Deq(); ok {
				deq++
			}
		}
		return q.Enqueued == enq && q.Dequeued == deq && int(enq-deq) == q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanOccupancy(t *testing.T) {
	q := NewQueue("m", 8)
	q.Enq(Data(1))
	q.Sample()
	q.Enq(Data(2))
	q.Enq(Data(3))
	q.Sample()
	if got := q.MeanOccupancy(); got != 2 {
		t.Fatalf("mean occupancy = %g, want 2", got)
	}
}

func TestMemBudget(t *testing.T) {
	m := NewMem("pe0", 64) // 8 tokens total
	q1 := m.MustAlloc("a", 4)
	if m.FreeBytes() != 32 {
		t.Fatalf("free = %d, want 32", m.FreeBytes())
	}
	if _, err := m.Alloc("b", 5); err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	q2 := m.MustAlloc("b", 4)
	if m.FreeBytes() != 0 {
		t.Fatal("budget not exhausted")
	}
	q1.Enq(Data(1))
	q2.Enq(Data(2))
	if m.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", m.Buffered())
	}
	if len(m.Queues()) != 2 {
		t.Fatal("queue registry wrong")
	}
}

func TestCreditFlowControl(t *testing.T) {
	dst := NewQueue("dst", 8)
	arb := NewArbiter(dst, 2)
	p0, p1 := arb.Port(0), arb.Port(1)
	if p0.Credits()+p1.Credits() != 8 {
		t.Fatal("credits don't cover capacity")
	}
	for p0.CanSend() {
		p0.Send(Data(0))
	}
	if p0.Credits() != 0 || p0.Send(Data(9)) {
		t.Fatal("send without credits succeeded")
	}
	if p0.Stalls == 0 {
		t.Fatal("stall not counted")
	}
	// Dequeue returns credits to the sender (p0), not round-robin.
	arb.Deq()
	if p0.Credits() != 1 || p1.Credits() != 4 {
		t.Fatalf("credit return wrong: p0=%d p1=%d", p0.Credits(), p1.Credits())
	}
	if arb.TotalCredits() != dst.Cap() {
		t.Fatalf("credit conservation: %d != %d", arb.TotalCredits(), dst.Cap())
	}
}

// Property: credits are conserved under arbitrary send/deq interleavings,
// and each dequeue returns its credit to the port that sent the oldest
// buffered token, so every port holds its initial credits minus its
// buffered tokens.
func TestCreditConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		dst := NewQueue("d", 6)
		arb := NewArbiter(dst, 3)
		var senders []int // model FIFO of the buffered tokens' ports
		for _, op := range ops {
			if op%4 == 3 {
				if _, ok := arb.Deq(); ok {
					senders = senders[1:]
				}
			} else if p := int(op % 3); arb.Port(p).Send(Data(uint64(op))) {
				senders = append(senders, p)
			}
			if arb.TotalCredits() != dst.Cap() || arb.CreditedBuffered() != len(senders) {
				return false
			}
			for p := 0; p < arb.Ports(); p++ {
				held := 0
				for _, s := range senders {
					if s == p {
						held++
					}
				}
				if arb.Port(p).Credits() != dst.Cap()/arb.Ports()-held {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestArbiterSeededTokens(t *testing.T) {
	dst := NewQueue("d", 4)
	arb := NewArbiter(dst, 1)
	dst.Enq(Data(42)) // seeded directly, no credit consumed
	if tok, ok := arb.Deq(); !ok || tok.Value != 42 {
		t.Fatal("seeded token lost")
	}
	// The seeded dequeue must not mint an extra credit.
	if arb.TotalCredits() != dst.Cap() {
		t.Fatalf("credits inflated: %d", arb.TotalCredits())
	}
}

func TestQueueReset(t *testing.T) {
	q := NewQueue("r", 4)
	q.Enq(Data(1))
	q.Enq(Data(2))
	q.Reset()
	if q.Len() != 0 || q.Enqueued != 2 {
		t.Fatal("reset semantics wrong")
	}
	if !q.Enq(Data(3)) {
		t.Fatal("enq after reset failed")
	}
}

// BenchmarkArbiterDeq times one credited dequeue, plus the send that refills
// the slot, on a queue 4096 tokens deep fed by 16 producers: inter-PE
// queues hold a few thousand tokens, and returning a credit must not cost
// time proportional to that depth.
func BenchmarkArbiterDeq(b *testing.B) {
	const depth, producers = 4096, 16
	dst := NewQueue("deep", depth)
	arb := NewArbiter(dst, producers)
	for p := 0; dst.Space() > 0; p = (p + 1) % producers {
		arb.Port(p).Send(Data(uint64(p)))
	}
	b.ResetTimer()
	// Ports sent round-robin, so the credit of the i-th dequeue goes back
	// to port i mod producers.
	for i := 0; i < b.N; i++ {
		p := i % producers
		if _, ok := arb.Deq(); !ok || !arb.Port(p).Send(Data(uint64(p))) {
			b.Fatalf("dequeue %d: credit did not return to port %d", i, p)
		}
	}
}
