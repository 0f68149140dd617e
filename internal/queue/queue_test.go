package queue

import (
	"runtime"
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
	for p0.Credits() > 0 {
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

// TestArbiterProducerLimit checks the sender FIFO's 16-bit port indices:
// the highest port index returns its credit to that port, and one producer
// more than maxProducers is rejected.
func TestArbiterProducerLimit(t *testing.T) {
	dst := NewQueue("wide", maxProducers)
	arb := NewArbiter(dst, maxProducers)
	last := arb.Port(maxProducers - 1)
	if !last.Send(Data(7)) || last.Send(Data(8)) {
		t.Fatal("the last port did not hold exactly one credit")
	}
	if tok, ok := arb.Deq(); !ok || tok.Value != 7 || !last.Send(Data(9)) {
		t.Fatal("the credit did not return to the last port")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an arbiter with maxProducers+1 producers was built")
		}
	}()
	NewArbiter(NewQueue("wider", 4), maxProducers+1)
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

// FuzzQueueMatchesTokenRing drives random Enq/Deq/Peek/PeekAt streams
// through a Queue and through a plain []Token ring of the same capacity,
// and requires the same results, counters and full-state edges. Control
// flags cross the wrap-around, and the edge hook sees every full/not-full
// transition, which must alternate true/false starting with true.
func FuzzQueueMatchesTokenRing(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3})
	f.Add(uint8(3), []byte{1, 1, 1, 1, 1, 2, 0, 1, 2, 0, 1, 3, 17, 2, 2, 2})
	f.Add(uint8(16), []byte{5, 9, 13, 17, 21, 25, 2, 6, 1, 3, 7, 11})
	f.Fuzz(func(t *testing.T, capSeed uint8, ops []byte) {
		capacity := int(capSeed%16) + 1
		q := NewQueue("f", capacity)
		var edges []bool
		q.SetEdgeHook(func(full bool) {
			if full != q.Full() {
				t.Fatalf("edge(%v) on a queue with Full() = %v", full, q.Full())
			}
			edges = append(edges, full)
		})
		ring := make([]Token, capacity) // the model
		head, size, wantEdges := 0, 0, 0
		for i, op := range ops {
			tok := Token{Value: uint64(i)<<8 | uint64(op), Ctrl: op&4 != 0}
			switch op % 4 {
			case 0, 1: // enqueue twice as often as dequeue, so the ring fills
				ok := q.Enq(tok)
				if ok != (size < capacity) {
					t.Fatalf("op %d: Enq = %v with %d of %d buffered", i, ok, size, capacity)
				}
				if ok {
					ring[(head+size)%capacity] = tok
					if size++; size == capacity {
						wantEdges++
					}
				}
			case 2:
				got, ok := q.Deq()
				if ok != (size > 0) || ok && got != ring[head] {
					t.Fatalf("op %d: Deq = %+v %v, model %+v (size %d)", i, got, ok, ring[head], size)
				}
				if ok {
					if size == capacity {
						wantEdges++
					}
					head, size = (head+1)%capacity, size-1
				}
			case 3:
				k := int(op>>2) % (capacity + 2)
				got, ok := q.PeekAt(k)
				if ok != (k < size) || ok && got != ring[(head+k)%capacity] {
					t.Fatalf("op %d: PeekAt(%d) = %+v %v with %d buffered", i, k, got, ok, size)
				}
				got, ok = q.Peek()
				if ok != (size > 0) || ok && got != ring[head] {
					t.Fatalf("op %d: Peek = %+v %v", i, got, ok)
				}
			}
			if q.Len() != size || q.Space() != capacity-size || q.Full() != (size == capacity) || q.Empty() != (size == 0) {
				t.Fatalf("op %d: Len %d Space %d, model size %d of %d", i, q.Len(), q.Space(), size, capacity)
			}
		}
		if len(edges) != wantEdges {
			t.Fatalf("%d edges, model %d", len(edges), wantEdges)
		}
		for i, full := range edges {
			if full != (i%2 == 0) {
				t.Fatalf("edge %d is %v: edges must alternate true/false from true", i, full)
			}
		}
	})
}

// allocBytes returns the mean host bytes one call of build allocates.
func allocBytes(build func()) uint64 {
	const runs = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestQueueHostBytes pins a queue's host storage to 9 bytes per token slot
// (the value word and its control flag) plus the fixed header.
func TestQueueHostBytes(t *testing.T) {
	const n, header = 4096, 512
	var sink *Queue
	got := allocBytes(func() { sink = NewQueue("h", n) })
	if limit := uint64(9*n + header); got > limit {
		t.Fatalf("a %d-token queue allocates %d host bytes, want at most %d", n, got, limit)
	}
	_ = sink
}
