package queue

import "fmt"

// Mem models a PE's queue memory: a small SRAM (16 KB by default, Table 2)
// that is statically divided among the PE's virtualized queues, each managed
// as a circular buffer (Sec. 3). Allocating a queue consumes part of the
// budget; allocation fails when the SRAM is exhausted, mirroring the
// hardware's fixed capacity.
type Mem struct {
	name       string
	totalBytes int
	usedBytes  int
	queues     []*Queue
	onAlloc    func(*Queue)
	buffered   int // aggregate token occupancy, maintained by the queues
}

// NewMem returns a queue memory with the given SRAM capacity in bytes.
func NewMem(name string, totalBytes int) *Mem {
	if totalBytes <= 0 {
		panic(fmt.Sprintf("queue.Mem %q: non-positive size %d", name, totalBytes))
	}
	return &Mem{name: name, totalBytes: totalBytes}
}

// TotalBytes returns the SRAM capacity.
func (m *Mem) TotalBytes() int { return m.totalBytes }

// FreeBytes returns the unallocated SRAM.
func (m *Mem) FreeBytes() int { return m.totalBytes - m.usedBytes }

// Queues returns all queues allocated from this memory, in allocation order.
func (m *Mem) Queues() []*Queue { return m.queues }

// SetOnAlloc registers f to run on every queue allocated after this call —
// the seam the simulator uses to attach trace hooks at the moment a queue
// is carved out of the SRAM, whenever during program build that happens.
// Queues allocated earlier are not revisited.
func (m *Mem) SetOnAlloc(f func(*Queue)) { m.onAlloc = f }

// Alloc carves a queue with capacity capTokens out of the SRAM budget.
// It returns an error when the remaining budget is insufficient.
func (m *Mem) Alloc(name string, capTokens int) (*Queue, error) {
	need := capTokens * TokenBytes
	if need > m.FreeBytes() {
		return nil, fmt.Errorf("queue mem %q: cannot allocate %d tokens (%d B) for %q: %d B free",
			m.name, capTokens, need, name, m.FreeBytes())
	}
	q := NewQueue(name, capTokens)
	q.occ = &m.buffered
	m.usedBytes += need
	m.queues = append(m.queues, q)
	if m.onAlloc != nil {
		m.onAlloc(q)
	}
	return q, nil
}

// MustAlloc is Alloc but panics on failure; used during system construction
// where an allocation failure is a configuration bug.
func (m *Mem) MustAlloc(name string, capTokens int) *Queue {
	q, err := m.Alloc(name, capTokens)
	if err != nil {
		panic(err)
	}
	return q
}

// Buffered returns the total number of tokens currently resident across all
// queues in this memory. O(1): the queues maintain the aggregate count on
// every enqueue/dequeue, because this is read on the simulator's hot path.
func (m *Mem) Buffered() int { return m.buffered }

// recountBuffered rescans every queue — the invariant audit cross-checks it
// against the incremental counter.
func (m *Mem) recountBuffered() int {
	n := 0
	for _, q := range m.queues {
		n += q.Len()
	}
	return n
}

// CheckBuffered verifies the incremental occupancy counter against a full
// rescan, returning both values; ok is false on drift.
func (m *Mem) CheckBuffered() (incremental, rescan int, ok bool) {
	rescan = m.recountBuffered()
	return m.buffered, rescan, m.buffered == rescan
}
