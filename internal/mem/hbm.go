package mem

// HBM models high-bandwidth main memory: a fixed access latency plus a
// bandwidth constraint. At 2 GHz, 256 GB/s is 128 bytes (two cache lines)
// per cycle; requests beyond that rate queue behind earlier ones.
//
// The model keeps a single "next free service slot" clock measured in
// half-cycles: each 64-byte line fill occupies half a cycle of channel time.
type HBM struct {
	latency   uint64 // access latency in cycles
	slotHalf  uint64 // half-cycles of channel time per line
	nextFree  uint64 // in half-cycles
	lastStart uint64 // last request's arrival, for epoch detection
	Reads     uint64
	Writes    uint64
	Stalled   uint64 // cumulative half-cycles requests waited for bandwidth
	LinesXfer uint64
}

// NewHBM creates a main memory with the given latency (cycles) and bandwidth
// expressed in bytes per cycle.
func NewHBM(latency uint64, bytesPerCycle int) *HBM {
	if bytesPerCycle < LineBytes/2 {
		bytesPerCycle = LineBytes / 2
	}
	// half-cycles per line = lineBytes / bytesPerCycle * 2
	slot := uint64(2 * LineBytes / bytesPerCycle)
	if slot == 0 {
		slot = 1
	}
	return &HBM{latency: latency, slotHalf: slot}
}

// Latency returns the fixed access latency in cycles.
func (h *HBM) Latency() uint64 { return h.latency }

// access implements the lower interface.
func (h *HBM) access(now uint64, _ Addr, write bool) uint64 {
	if write {
		h.Writes++
	} else {
		h.Reads++
	}
	h.LinesXfer++
	start := 2 * now // half-cycles
	// Requests normally arrive in near-monotone time order (PEs tick in
	// lockstep). When a different client's timeline is simulated after the
	// fact — OOO cores run one after another — its requests arrive "in the
	// past"; the queued channel state belongs to another epoch, so reset it
	// rather than serializing unrelated timelines.
	if start+h.slotHalf < h.lastStart {
		h.nextFree = start
	}
	h.lastStart = start
	if start < h.nextFree {
		h.Stalled += h.nextFree - start
		start = h.nextFree
	}
	h.nextFree = start + h.slotHalf
	return (start+1)/2 + h.latency
}
