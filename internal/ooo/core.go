// Package ooo implements the out-of-order-core baselines: a trace-driven
// interval timing model of a Skylake-like 6-wide OOO core (Table 2),
// substituted for the paper's Pin-based simulator (see DESIGN.md §5). The
// model captures the first-order effects the paper's comparison relies on:
// wide but serialized instruction issue, ROB-limited memory-level
// parallelism, dependent-load serialization through the cache hierarchy,
// MSHR-limited outstanding misses, and branch-misprediction flushes.
//
// Applications drive a Core directly (there is no stored trace): each
// dynamic instruction is reported through Op/Load/Store/Branch as the
// reference implementation executes.
package ooo

import "fifer/internal/mem"

// Config parameterizes the core model.
type Config struct {
	IssueWidth       int    // instructions dispatched per cycle (6)
	ROB              int    // reorder-buffer entries (224, Skylake)
	MSHRs            int    // outstanding L1 misses (10)
	MispredictFlush  uint64 // cycles from resolve to redirect (~14)
	PredictorEntries int    // 2-bit counters in the toy branch predictor
}

// DefaultConfig returns the Table 2 Skylake-like core.
func DefaultConfig() Config {
	return Config{IssueWidth: 6, ROB: 224, MSHRs: 10, MispredictFlush: 14, PredictorEntries: 4096}
}

// Dep is a dataflow handle: the cycle at which a value becomes available.
// Zero means "ready from the start". Apps thread Deps from producer loads
// into dependent loads/branches to express indirection chains.
type Dep uint64

// Core is one out-of-order core's timing state.
type Core struct {
	cfg  Config
	port *mem.Port

	cycle uint64 // dispatch front: cycle of the instruction being dispatched
	slot  int    // dispatch slots used in the current cycle

	rob   []uint64 // completion times of in-flight instructions, FIFO
	robHd int
	robSz int

	mshr   []uint64 // completion times of outstanding misses, FIFO
	mshrHd int
	mshrSz int

	pred []uint8 // 2-bit saturating counters

	Instrs uint64 // instructions dispatched
}

// NewCore creates a core using the given memory port for loads/stores.
func NewCore(cfg Config, port *mem.Port) *Core {
	return &Core{
		cfg:  cfg,
		port: port,
		rob:  make([]uint64, cfg.ROB),
		mshr: make([]uint64, cfg.MSHRs),
		pred: make([]uint8, cfg.PredictorEntries),
	}
}

// Cycle returns the core's current cycle (the dispatch front).
func (c *Core) Cycle() uint64 { return c.cycle }

// Backing returns the functional store behind the core's memory port.
func (c *Core) Backing() *mem.Backing { return c.port.Backing() }

// SetCycle advances the core's clock (used for barriers in the multicore
// model: all cores resume at the max cycle).
func (c *Core) SetCycle(n uint64) {
	if n > c.cycle {
		c.cycle = n
		c.slot = 0
	}
}

// dispatch admits one instruction: consumes a dispatch slot, waits for a ROB
// entry, and records the instruction's completion time.
func (c *Core) dispatch(complete uint64) {
	c.Instrs++
	c.slot++
	if c.slot >= c.cfg.IssueWidth {
		c.slot = 0
		c.cycle++
	}
	// ROB full: dispatch stalls until the oldest instruction retires.
	if c.robSz == c.cfg.ROB {
		oldest := c.rob[c.robHd]
		c.robHd = wrap(c.robHd+1, c.cfg.ROB)
		c.robSz--
		if oldest > c.cycle {
			c.cycle = oldest
			c.slot = 0
		}
	}
	// In-order retirement: completion times must be monotone at the tail to
	// model the retire pointer; we clamp to the previous tail.
	if c.robSz > 0 {
		prev := c.rob[wrap(c.robHd+c.robSz-1, c.cfg.ROB)]
		if complete < prev {
			complete = prev
		}
	}
	c.rob[wrap(c.robHd+c.robSz, c.cfg.ROB)] = complete
	c.robSz++
}

// wrap reduces a ring index i < 2n modulo n with a compare instead of a
// divide (ROB and MSHR sizes are not powers of two).
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// Op reports n independent single-cycle ALU instructions.
func (c *Core) Op(n int) {
	for i := 0; i < n; i++ {
		c.dispatch(c.cycle + 1)
	}
}

// Load reports a load of addr whose address operand is ready at dep.
// It returns the cycle the loaded value is available.
func (c *Core) Load(addr mem.Addr, dep Dep) Dep {
	issue := c.cycle
	if uint64(dep) > issue {
		issue = uint64(dep)
	}
	l1lat := c.port.L1().Latency()
	_, ready := c.port.Load(issue, addr)
	if ready > issue+l1lat {
		// Miss: occupy an MSHR; if all are busy, the miss waits for the
		// oldest outstanding one.
		if c.mshrSz == c.cfg.MSHRs {
			oldest := c.mshr[c.mshrHd]
			c.mshrHd = wrap(c.mshrHd+1, c.cfg.MSHRs)
			c.mshrSz--
			if oldest > issue {
				delay := oldest - issue
				ready += delay
			}
		}
		c.mshr[wrap(c.mshrHd+c.mshrSz, c.cfg.MSHRs)] = ready
		c.mshrSz++
	}
	c.dispatch(ready)
	return Dep(ready)
}

// Store reports a store to addr (fire-and-forget through the write buffer).
func (c *Core) Store(addr mem.Addr) {
	c.port.Store(c.cycle, addr, c.port.Backing().Load(addr)) // timing only; value already written functionally
	c.dispatch(c.cycle + 1)
}

// StoreValue performs a functional store plus timing.
func (c *Core) StoreValue(addr mem.Addr, v uint64) {
	c.port.Store(c.cycle, addr, v)
	c.dispatch(c.cycle + 1)
}

// Branch reports a conditional branch at static site `site` whose condition
// resolves at dep. A 2-bit predictor decides whether it mispredicts; on a
// mispredict, dispatch restarts after the branch resolves plus the flush
// penalty.
func (c *Core) Branch(site uint64, taken bool, dep Dep) {
	resolve := c.cycle + 1
	if uint64(dep) > resolve {
		resolve = uint64(dep)
	}
	c.dispatch(resolve)
	idx := site % uint64(len(c.pred))
	ctr := c.pred[idx]
	predictTaken := ctr >= 2
	if predictTaken != taken {
		redirect := resolve + c.cfg.MispredictFlush
		if redirect > c.cycle {
			c.cycle = redirect
			c.slot = 0
		}
	}
	if taken && ctr < 3 {
		c.pred[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		c.pred[idx] = ctr - 1
	}
}

// IssuedCycles returns the cycles attributable to pure instruction issue
// (instructions / width) — the "issued" bucket of the Fig. 14 CPI stack.
func (c *Core) IssuedCycles() uint64 {
	return c.Instrs / uint64(c.cfg.IssueWidth)
}
