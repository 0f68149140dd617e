package trace

import "testing"

// TestCollectorRingGrowsOnDemand pins the ring's storage: none until the
// first event, then growth capped at the capacity, with the same
// wraparound and drop count as a ring allocated whole.
func TestCollectorRingGrowsOnDemand(t *testing.T) {
	c := NewCollector(0)
	c.SampleRow(MetricsRow{PE: 0})
	c.SampleKernel(KernelStats{PEs: 1})
	if cap(c.buf) != 0 {
		t.Fatalf("collector without events holds a %d-event ring", cap(c.buf))
	}
	const capEvents = 1500 // not a power of two: growth must clamp to it
	c = NewCollector(capEvents)
	for i := 0; i < capEvents+500; i++ {
		c.Emit(Event{Cycle: uint64(i)})
		if cap(c.buf) > capEvents {
			t.Fatalf("after %d events the ring holds %d slots, capacity %d", i+1, cap(c.buf), capEvents)
		}
	}
	if c.Len() != capEvents || c.Dropped() != 500 {
		t.Fatalf("Len %d, Dropped %d; want %d and 500", c.Len(), c.Dropped(), capEvents)
	}
	for i, e := range c.Events() {
		if want := uint64(500 + i); e.Cycle != want {
			t.Fatalf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
}
