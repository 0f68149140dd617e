// Package trace is the simulator's observability layer: typed cycle-level
// events emitted by the core through a nil-checked Config.Tracer hook, a
// ring-buffered in-memory collector, Chrome-trace-event/Perfetto-compatible
// JSON export, and a periodic per-PE metrics sampler (CPI-stack deltas,
// queue occupancy, DRM inflight). The contract with the core is strict:
// with no tracer attached the simulation hot path pays a single predictable
// nil-check branch per potential event and performs no allocations; with a
// tracer attached, events are written into a bounded ring, so tracing
// observes the simulation without ever perturbing it — results are
// bit-identical with tracing on or off. DESIGN.md §9 documents the event
// taxonomy and file formats.
package trace

// Kind identifies what happened in the simulated machine at an event.
type Kind uint8

const (
	// KindStageSwitch: a PE activated a stage configuration (Name = stage,
	// Arg = resident-stage index). Emitted for the free initial activation
	// too, so per-PE counts equal the PE's Activations statistic.
	KindStageSwitch Kind = iota
	// KindReconfigBegin: a PE started the drain/load/activate sequence
	// (Name = incoming stage, Arg = the reconfiguration period in cycles).
	KindReconfigBegin
	// KindReconfigEnd: the pending configuration became active (Name =
	// stage, Arg = resident-stage index). Always followed, at the same
	// cycle, by the matching KindStageSwitch.
	KindReconfigEnd
	// KindQueueFull: an enqueue filled a queue's last slot — the leading
	// edge of a back-pressure stall (Name = queue, Arg = occupancy).
	KindQueueFull
	// KindQueueReady: a dequeue (or reset) made space in a full queue — the
	// trailing edge (Name = queue, Arg = occupancy after the dequeue).
	// Full/ready edges strictly alternate per queue, starting with full.
	KindQueueReady
	// KindDRMIssue: a DRM launched one memory access (Name = DRM, Arg =
	// byte address).
	KindDRMIssue
	// KindDRMResponse: a DRM delivered one token to its output queue
	// (Name = DRM, Arg = token value). Responses include control tokens
	// passed through, so per-DRM responses >= issues.
	KindDRMResponse
	// KindCreditGrant: an inter-PE producer consumed one credit sending a
	// token (Name = destination queue, Arg = producer port index). PE is
	// the consumer that owns the queue.
	KindCreditGrant
	// KindCreditReturn: the consumer's dequeue returned one credit to a
	// producer (Name = destination queue, Arg = producer port index).
	KindCreditReturn
	// KindCheckpoint: the progress watchdog took a checkpoint (PE = -1,
	// Name = "watchdog", Arg = total datapath firings so far).
	KindCheckpoint

	kindCount
)

var kindNames = [kindCount]string{
	KindStageSwitch:   "stage-switch",
	KindReconfigBegin: "reconfig-begin",
	KindReconfigEnd:   "reconfig-end",
	KindQueueFull:     "queue-full",
	KindQueueReady:    "queue-ready",
	KindDRMIssue:      "drm-issue",
	KindDRMResponse:   "drm-response",
	KindCreditGrant:   "credit-grant",
	KindCreditReturn:  "credit-return",
	KindCheckpoint:    "checkpoint",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString maps an encoded kind name back to its Kind; ok is false
// for names this version does not know (a trace from a newer encoder).
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Kinds lists every event kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, kindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event is one typed simulation event. The struct is plain data — interned
// component names, no pointers into live simulation state — so emitting one
// never allocates and a collected trace stays valid after the run.
type Event struct {
	Cycle uint64 // simulated cycle at which the event happened
	PE    int    // processing element, or -1 for system-wide events
	Kind  Kind
	Name  string // component: stage, queue, or DRM name (see Kind docs)
	Arg   uint64 // kind-specific payload (see Kind docs)
}

// Tracer receives events from the simulation core. Implementations must not
// mutate simulation state (they only see value types, so they cannot) and
// need not be safe for concurrent use: a tracer is owned by one simulation.
type Tracer interface {
	Emit(e Event)
}

// MetricsRow is one periodic per-PE sample: CPI-stack deltas over the
// elapsed window plus instantaneous occupancy gauges. Summing every window's
// deltas for one PE reproduces the PE's final CPI stack exactly, and their
// total equals the run's cycle count — the invariant suite pins this.
type MetricsRow struct {
	Cycle uint64 // sample cycle (end of the window)
	PE    int
	// CPI-stack deltas since the previous sample of this PE.
	Issued, Stall, Queue, Reconfig, Idle uint64
	// QueueTokens is the PE's queue-memory occupancy at the sample cycle.
	QueueTokens int
	// DRMInflight is the PE's total in-flight DRM accesses at the sample.
	DRMInflight int
}

// Total returns the row's delta total — the window length in cycles.
func (r MetricsRow) Total() uint64 {
	return r.Issued + r.Stall + r.Queue + r.Reconfig + r.Idle
}

// MetricsSink receives periodic metrics samples from the core.
type MetricsSink interface {
	SampleRow(r MetricsRow)
}

// KernelStats counts a simulation kernel's own work, as opposed to the
// simulated machine's: PE ticks it executed, cycles it skipped in
// whole-machine clock jumps, and lazy catch-ups that replayed parked cycles.
type KernelStats struct {
	PEs      int    // machine width
	Cycles   uint64 // simulated cycles
	Ticks    uint64 // PE ticks executed
	Jumped   uint64 // cycles skipped by whole-machine clock jumps
	CatchUps uint64 // catch-ups that replayed at least one parked cycle
}

// Parked returns the PE-cycles the kernel settled without ticking:
// PEs×Cycles minus the ticks it executed.
func (k KernelStats) Parked() uint64 { return uint64(k.PEs)*k.Cycles - k.Ticks }

// ExecutedShare returns the fraction of PE-cycles the kernel ticked (0 for
// an empty run).
func (k KernelStats) ExecutedShare() float64 {
	if total := uint64(k.PEs) * k.Cycles; total > 0 {
		return float64(k.Ticks) / float64(total)
	}
	return 0
}

// KernelSink is implemented by a MetricsSink that also wants the kernel's
// counters: the core reports them once, when Run returns.
type KernelSink interface {
	SampleKernel(k KernelStats)
}

// DefaultBufEvents is the collector's default ring capacity.
const DefaultBufEvents = 1 << 20

// Collector is the standard Tracer, MetricsSink and KernelSink: a
// fixed-capacity event ring (flight-recorder semantics — when full, the
// oldest events are overwritten and counted in Dropped), an append-only
// metrics log, and the run's kernel counters.
// A Collector belongs to one simulation and is not safe for concurrent use.
type Collector struct {
	buf       []Event
	capEvents int // ring capacity; buf grows up to it on demand
	start     int // index of the oldest event once the ring has wrapped
	dropped   uint64
	rows      []MetricsRow
	kernel    KernelStats
}

// NewCollector returns a collector with the given ring capacity in events
// (<= 0 selects DefaultBufEvents). The ring grows with the events it holds,
// up to that capacity, so a collector that sees no events holds no ring.
func NewCollector(capEvents int) *Collector {
	if capEvents <= 0 {
		capEvents = DefaultBufEvents
	}
	return &Collector{capEvents: capEvents}
}

// Emit implements Tracer: append to the ring, overwriting the oldest event
// when full. Never allocates once the ring has reached capacity.
func (c *Collector) Emit(e Event) {
	if len(c.buf) < c.capEvents {
		if len(c.buf) == cap(c.buf) {
			c.grow()
		}
		c.buf = append(c.buf, e)
		return
	}
	c.buf[c.start] = e
	c.start++
	if c.start == len(c.buf) {
		c.start = 0
	}
	c.dropped++
}

// grow doubles the ring's storage, capped at its capacity.
func (c *Collector) grow() {
	nb := make([]Event, len(c.buf), min(max(2*cap(c.buf), 1024), c.capEvents))
	copy(nb, c.buf)
	c.buf = nb
}

// SampleRow implements MetricsSink.
func (c *Collector) SampleRow(r MetricsRow) { c.rows = append(c.rows, r) }

// SampleKernel implements KernelSink.
func (c *Collector) SampleKernel(k KernelStats) { c.kernel = k }

// Kernel returns the kernel counters the last run reported.
func (c *Collector) Kernel() KernelStats { return c.kernel }

// Events returns the collected events, oldest first. The slice is a copy;
// mutating it does not affect the collector.
func (c *Collector) Events() []Event {
	out := make([]Event, 0, len(c.buf))
	out = append(out, c.buf[c.start:]...)
	out = append(out, c.buf[:c.start]...)
	return out
}

// Len returns the number of events currently held in the ring.
func (c *Collector) Len() int { return len(c.buf) }

// Dropped returns how many events were overwritten because the ring was
// full. A nonzero count means the trace is a suffix of the run, not the
// whole run; analyses that need pairing (reconfig begin/end, queue edges)
// must tolerate unmatched leading events.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Rows returns the metrics samples in emission order (shared slice; callers
// must not mutate).
func (c *Collector) Rows() []MetricsRow { return c.rows }

// Empty reports whether the collector captured nothing — the case for runs
// that never touch the CGRA core (the OOO baselines).
func (c *Collector) Empty() bool { return len(c.buf) == 0 && len(c.rows) == 0 }
