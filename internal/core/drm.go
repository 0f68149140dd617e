package core

import (
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// DRMMode selects a decoupled reference machine's behavior (Sec. 5.4).
type DRMMode int

const (
	// DRMIdle: unconfigured; the DRM does nothing.
	DRMIdle DRMMode = iota
	// DRMDereference: each input token is an address whose in-memory value
	// is placed in the output queue.
	DRMDereference
	// DRMScan: each input token *pair* is a [start, end) byte-address range
	// whose words are sequentially fetched and enqueued.
	DRMScan
)

func (m DRMMode) String() string {
	switch m {
	case DRMDereference:
		return "dereference"
	case DRMScan:
		return "scan"
	}
	return "idle"
}

// DRM is a decoupled reference machine: a small FSM that performs memory
// accesses on the PE's behalf so stages never stall on the misses those
// accesses incur. Accesses may complete out of order in the memory system
// but results are delivered to the output queue in order. DRMs are
// configured once, at initialization, and keep working regardless of which
// stage is currently scheduled on the PE (Sec. 5.4).
//
// Control tokens pass through transparently, in order with data, so
// iteration boundaries survive decoupling (Sec. 5.5).
type DRM struct {
	name  string
	mode  DRMMode
	in    *queue.Queue
	out   stage.Out
	port  *mem.Port
	max   int // max in-flight accesses
	width int // accesses issued (and completions delivered) per cycle

	// boundary, when set on a scanning DRM, emits a control token after
	// each completed range, delineating data-set boundaries downstream
	// (Sec. 5.5); it fires even for empty ranges so streams stay aligned.
	boundary bool

	inflight  inflightRing
	lastReady uint64
	respExtra uint64 // fault injection: extra latency on every response

	// Event-horizon bookkeeping (see horizon.go), rewritten by every Tick:
	// wake is the earliest future cycle this DRM could act; outBlocked marks
	// the one inert state with a per-cycle side effect (a ready head token
	// against a full output counts OutFull every cycle until space appears).
	wake       uint64
	outBlocked bool

	// tracer/pe are set by the owning PE's wireTrace; nil tracer (the
	// default) reduces every emission site to one branch.
	tracer trace.Tracer
	pe     int

	scanCur mem.Addr // active scan cursor; scanEnd==0 means no active range
	scanEnd mem.Addr

	// Statistics.
	Accesses uint64 // memory accesses issued
	Emitted  uint64 // tokens delivered to the output queue
	OutFull  uint64 // cycles a completed token waited on a full output
}

// drmEntry is one in-flight access in 16 bytes: the token's value, and the
// cycle it is ready with the token's control flag in bit 63. No ready
// cycle reaches bit 63: push and FaultDelayResponses saturate at maxReady.
type drmEntry struct {
	val   uint64
	ready uint64
}

const (
	entryCtrl = 1 << 63
	maxReady  = entryCtrl - 1
)

// readyAt returns the cycle the entry's token may be delivered.
func (e *drmEntry) readyAt() uint64 { return e.ready &^ entryCtrl }

// token returns the entry's token.
func (e *drmEntry) token() queue.Token {
	return queue.Token{Value: e.val, Ctrl: e.ready&entryCtrl != 0}
}

// inflightRing is the DRM's in-order reorder buffer as a power-of-two ring:
// completion pops the front in O(1) instead of the O(n) copy-shift a slice
// would need on every delivered token. It grows (it never needs to — NewDRM
// sizes it past the max+1 boundary-token bound the audit enforces — but
// growth is cheaper than a corruption class).
type inflightRing struct {
	buf  []drmEntry // len(buf) is a power of two
	head int
	n    int
}

func newInflightRing(capHint int) inflightRing {
	c := 4
	for c < capHint {
		c <<= 1
	}
	return inflightRing{buf: make([]drmEntry, c)}
}

func (r *inflightRing) Len() int         { return r.n }
func (r *inflightRing) front() *drmEntry { return &r.buf[r.head] }
func (r *inflightRing) at(i int) *drmEntry {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *inflightRing) push(e drmEntry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *inflightRing) popFront() {
	r.buf[r.head] = drmEntry{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *inflightRing) grow() {
	nb := make([]drmEntry, len(r.buf)*2)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// NewDRM creates an unconfigured DRM. The input queue is allocated by the
// caller. issueWidth is the accesses the DRM can launch (and results it can
// deliver) per cycle — graph edge-list accesses are launched in parallel
// (Sec. 5.6).
func NewDRM(name string, in *queue.Queue, port *mem.Port, maxOutstanding, issueWidth int) *DRM {
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}
	if issueWidth < 1 {
		issueWidth = 1
	}
	return &DRM{
		name: name, in: in, port: port, max: maxOutstanding, width: issueWidth,
		// +2: the audit allows max+1 entries (boundary tokens), and the ring
		// must never have to grow on the hot path.
		inflight: newInflightRing(maxOutstanding + 2),
	}
}

// Configure sets the DRM's mode and output; it is called once at program
// initialization.
func (d *DRM) Configure(mode DRMMode, out stage.Out) {
	d.mode = mode
	d.out = out
}

// SetBoundary makes a scanning DRM emit a control token after each range.
func (d *DRM) SetBoundary(on bool) { d.boundary = on }

// Name returns the DRM's diagnostic name.
func (d *DRM) Name() string { return d.name }

// Mode returns the configured mode.
func (d *DRM) Mode() DRMMode { return d.mode }

// In returns the DRM's address input queue (stages push into it).
func (d *DRM) In() *queue.Queue { return d.in }

// Feed returns the address queue as the channel end stages push into.
func (d *DRM) Feed() stage.Out { return stage.LocalOut(d.in) }

// Busy reports whether the DRM has pending work: buffered addresses,
// in-flight accesses, or an active scan range.
func (d *DRM) Busy() bool {
	return d.mode != DRMIdle && (!d.in.Empty() || d.inflight.Len() > 0 || d.scanEnd != 0)
}

// Tick advances the DRM by one cycle: complete up to issue-width ready
// accesses if the output has space, then issue up to issue-width new ones.
// It also publishes the DRM's wake cycle for the event-horizon kernel
// (horizon.go): now+1 after any progress, the head entry's ready cycle when
// only time separates the DRM from delivering, and horizonNever when only an
// external change (new addresses, output space) can unblock it.
func (d *DRM) Tick(now uint64) {
	d.wake = horizonNever
	d.outBlocked = false
	if d.mode == DRMIdle {
		return
	}
	progressed := false
	// Completion (in order).
	for k := 0; k < d.width && d.inflight.Len() > 0 && d.inflight.front().readyAt() <= now; k++ {
		tok := d.inflight.front().token()
		if !d.out.Push(tok) {
			d.OutFull++
			d.outBlocked = true
			break
		}
		d.inflight.popFront()
		d.Emitted++
		progressed = true
		if d.tracer != nil {
			d.trace(now, trace.KindDRMResponse, tok.Value)
		}
	}
	for k := 0; k < d.width && d.inflight.Len() < d.max; k++ {
		if !d.issue(now) {
			break
		}
		progressed = true
	}
	if progressed {
		// Acted this cycle; it may act again next cycle. (This also covers a
		// partial delivery that then hit a full output: the retry next cycle
		// is what recounts OutFull, so outBlocked must not batch it.)
		d.wake, d.outBlocked = now+1, false
		return
	}
	if d.outBlocked {
		return // wake stays horizonNever; advanceInert batches the OutFull count
	}
	if d.inflight.Len() > 0 {
		d.wake = d.inflight.front().readyAt()
	}
}

// issue launches one access (or consumes one control token); it reports
// whether it made progress.
func (d *DRM) issue(now uint64) bool {
	switch d.mode {
	case DRMDereference:
		t, ok := d.in.Peek()
		if !ok {
			return false
		}
		d.in.Deq()
		if t.Ctrl {
			d.push(t, now)
			return true
		}
		v, ready := d.port.Load(now, mem.Addr(t.Value))
		d.Accesses++
		if d.tracer != nil {
			d.trace(now, trace.KindDRMIssue, t.Value)
		}
		d.push(queue.Data(v), ready)
		return true
	case DRMScan:
		if d.scanEnd == 0 {
			// Need a (start, end) pair, or a pass-through control token.
			t, ok := d.in.Peek()
			if !ok {
				return false
			}
			if t.Ctrl {
				d.in.Deq()
				d.push(t, now)
				return true
			}
			if d.in.Len() < 2 {
				return false
			}
			s, _ := d.in.Deq()
			e, _ := d.in.Deq()
			if e.Ctrl {
				// Typed so Run degrades this to a per-job ErrInvariant.
				panic(&queue.Corruption{Component: d.name, Detail: "control token inside scan range pair"})
			}
			if s.Value >= e.Value {
				if d.boundary {
					d.push(queue.Ctrl(0), now)
				}
				return true // empty range
			}
			d.scanCur, d.scanEnd = mem.Addr(s.Value), mem.Addr(e.Value)
		}
		v, ready := d.port.Load(now, d.scanCur)
		d.Accesses++
		if d.tracer != nil {
			d.trace(now, trace.KindDRMIssue, uint64(d.scanCur))
		}
		d.push(queue.Data(v), ready)
		d.scanCur += mem.WordBytes
		if d.scanCur >= d.scanEnd {
			d.scanCur, d.scanEnd = 0, 0
			if d.boundary {
				d.push(queue.Ctrl(0), now)
			}
		}
		return true
	}
	return false
}

// trace emits one event on this DRM's behalf; callers nil-check d.tracer
// first so the disabled path costs one branch.
func (d *DRM) trace(now uint64, k trace.Kind, arg uint64) {
	d.tracer.Emit(trace.Event{Cycle: now, PE: d.pe, Kind: k, Name: d.name, Arg: arg})
}

func (d *DRM) push(t queue.Token, ready uint64) {
	ready = min(ready+d.respExtra, maxReady) // both addends are below 2^63
	if ready < d.lastReady {
		ready = d.lastReady // in-order delivery
	}
	d.lastReady = ready
	if t.Ctrl {
		ready |= entryCtrl
	}
	d.inflight.push(drmEntry{val: t.Value, ready: ready})
}

// FaultDelayResponses is a fault-injection hook (internal/faults): it pushes
// the ready time of every in-flight access — and of all responses issued
// afterwards — out by extra cycles, modeling a memory controller that stops
// responding to this DRM. Detector: the progress watchdog, once the stalled
// responses starve the downstream stage and traffic ceases. It returns the
// number of in-flight accesses that were delayed. Ready cycles saturate at
// maxReady, so a delay never reaches an entry's control flag.
func (d *DRM) FaultDelayResponses(extra uint64) int {
	extra = min(extra, maxReady)
	for i := 0; i < d.inflight.Len(); i++ {
		e := d.inflight.at(i)
		e.ready = min(e.readyAt()+extra, maxReady) | e.ready&entryCtrl
	}
	d.lastReady = min(d.lastReady+extra, maxReady)
	d.respExtra = min(d.respExtra+extra, maxReady)
	return d.inflight.Len()
}
