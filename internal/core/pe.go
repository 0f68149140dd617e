package core

import (
	"fmt"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// PE is one processing element: a CGRA fabric with its private L1 cache,
// queue memory, DRMs, and — in Fifer mode — a scheduler that time-
// multiplexes resident stage configurations onto the fabric (Fig. 7).
type PE struct {
	ID   int
	sys  *System
	cfg  *Config
	Mem  *mem.Port
	QMem *queue.Mem
	DRMs []*DRM

	stages []*stage.Stage
	active int // index into stages; -1 before the first activation

	// Reconfiguration state.
	reconfigUntil uint64 // busy reconfiguring until this cycle
	pending       int    // stage to activate when reconfiguration completes
	stallUntil    uint64 // fabric frozen by a coupled-load miss until this cycle

	// Scheduler hysteresis: a stage that was activated and then blocked
	// without firing once is kept off the candidate list for a short
	// cooldown. Without it, two mutually blocked high-occupancy stages can
	// ping-pong forever while a low-occupancy stage that would release the
	// back-pressure (e.g. a credit-starved consumer) never gets the fabric.
	cooldownUntil []uint64
	firedSinceAct bool

	// Event-horizon bookkeeping (horizon.go), rewritten by every Tick:
	// wake is the earliest future cycle this PE (fabric or any DRM) could
	// act; inertBucket is the CPI bucket every cycle until then charges; and
	// slideCooldown marks the fruitless-activation state whose per-cycle
	// side effect (re-arming cooldownUntil[active]) advanceInert must replay.
	wake          uint64
	inertBucket   inertBucket
	slideCooldown bool

	// Parking state (horizon.go): caughtUp is the cycle up to which this
	// PE's deferred inert accounting has been applied; dirty marks an
	// external arrival (credited token, credit return, gate release,
	// program injection) that obliges the PE to tick even though its
	// published wake predates the arrival.
	caughtUp uint64
	dirty    bool

	// Per-tick stage snapshot (scanStages): InputWork and readiness of every
	// resident stage, computed once per blocked cycle and shared by pick,
	// cooldownWake, and accountBlocked instead of each rescanning the queues.
	scanWork  []int
	scanReady []bool

	// Statistics.
	Stack        CPIStack
	SumResidence uint64 // total cycles between consecutive activations
	Activations  uint64
	SumReconfig  uint64 // total cycles spent in reconfiguration periods
	Reconfigs    uint64
	lastActivate uint64
	ctx          stage.Ctx
}

// inertBucket names the single CPIStack bucket a provably inert PE charges
// on every cycle of a fast-forward window. bucketNone marks a PE that acted
// this cycle (its wake is now+1, so no window can include it).
type inertBucket uint8

const (
	bucketNone inertBucket = iota
	bucketReconfig
	bucketStall
	bucketQueue
	bucketIdle
)

// schedCooldown is the exclusion window after a fruitless activation.
const schedCooldown = 64

// init populates a zero PE in place; NewSystemChecked lays all PEs out in
// one contiguous array so the per-cycle sweep walks sequential memory.
func (pe *PE) init(id int, sys *System) {
	cfg := &sys.Cfg
	pe.ID = id
	pe.sys = sys
	pe.cfg = cfg
	pe.Mem = sys.Hier.Port(id, sys.Backing)
	pe.QMem = queue.NewMem(fmt.Sprintf("pe%d", id), cfg.QueueMemBytes)
	pe.active = -1
	pe.pending = -1
	for i := 0; i < cfg.DRMsPerPE; i++ {
		// DRM address queues are small fixed buffers separate from the
		// 16 KB virtualized queue SRAM (Table 1 lists DRMs separately).
		in := queue.NewQueue(fmt.Sprintf("pe%d.drm%d.in", id, i), 16)
		pe.DRMs = append(pe.DRMs, NewDRM(fmt.Sprintf("pe%d.drm%d", id, i), in, pe.Mem, cfg.DRMOutstanding, cfg.DRMIssueWidth))
	}
	pe.wireTrace()
}

// AllocQueue carves a queue out of this PE's queue memory.
func (p *PE) AllocQueue(name string, capTokens int) *queue.Queue {
	return p.QMem.MustAlloc(fmt.Sprintf("pe%d.%s", p.ID, name), capTokens)
}

// DRM returns the i-th decoupled reference machine.
func (p *PE) DRM(i int) *DRM { return p.DRMs[i] }

// AddStage makes a stage resident on this PE. In static mode, at most one
// stage may be resident (the hardware has a single configuration and no
// scheduler). It panics on a port type the stage package cannot read
// through (stage.Bind): parking is correct only for state the exchange
// hooks see change.
func (p *PE) AddStage(s *stage.Stage) {
	if p.cfg.Mode == ModeStatic && len(p.stages) >= 1 {
		panic(fmt.Sprintf("pe%d: static pipeline allows one stage per PE; %q would be the second",
			p.ID, s.Name()))
	}
	if err := s.Bind(); err != nil {
		panic(fmt.Sprintf("pe%d: %v", p.ID, err))
	}
	if s.Gate != nil {
		// A release, like a credit return, is an arrival only the gated
		// PE's next tick can act on (horizon.go).
		s.Gate.OnRelease(func() { p.dirty = true })
	}
	if s.Mapping != nil && s.Mapping.ConfigAddr == 0 {
		// Configurations are stored in cacheable memory (Sec. 5.1); place
		// the encoded bitstream now so reconfiguration fetches have real
		// addresses and real contents.
		bs := s.Mapping.Encode()
		base := p.sys.Backing.Alloc(len(bs))
		s.Mapping.ConfigAddr = uint64(base)
		for i := 0; i+mem.WordBytes <= len(bs); i += mem.WordBytes {
			var w uint64
			for b := 0; b < mem.WordBytes; b++ {
				w |= uint64(bs[i+b]) << (8 * b)
			}
			p.sys.Backing.Store(base+mem.Addr(i), w)
		}
	}
	p.stages = append(p.stages, s)
	p.cooldownUntil = append(p.cooldownUntil, 0)
	p.scanWork = append(p.scanWork, 0)
	p.scanReady = append(p.scanReady, false)
}

// scanStages snapshots every resident stage's scheduler inputs for this
// tick. Queue state is frozen within a blocked cycle, so one pass serves
// every consumer.
func (p *PE) scanStages() {
	for i, s := range p.stages {
		w := s.InputWork()
		p.scanWork[i] = w
		p.scanReady[i] = w > 0 && !s.OutputsBlocked()
	}
}

// Stages returns the resident stages.
func (p *PE) Stages() []*stage.Stage { return p.stages }

// ActiveStage returns the currently configured stage, or nil.
func (p *PE) ActiveStage() *stage.Stage {
	if p.active < 0 || p.active >= len(p.stages) {
		return nil
	}
	return p.stages[p.active]
}

// Busy reports whether the PE has non-quiescent state: an unfinished
// reconfiguration, a frozen fabric, a busy DRM, or buffered tokens.
func (p *PE) Busy(now uint64) bool {
	if now < p.reconfigUntil || now < p.stallUntil || p.pending >= 0 {
		return true
	}
	for _, d := range p.DRMs {
		if d.Busy() {
			return true
		}
	}
	for _, s := range p.stages {
		if s.StateWork != nil && s.StateWork() > 0 {
			return true
		}
	}
	return p.QMem.Buffered() > 0
}

// Tick advances the PE by one cycle. Exactly one CPIStack bucket is
// incremented per call. It also publishes the PE's wake cycle — the minimum
// over the fabric's and every DRM's — for the run loop's parking.
func (p *PE) Tick(now uint64) {
	wake := horizonNever
	for _, d := range p.DRMs {
		d.Tick(now)
		if d.wake < wake {
			wake = d.wake
		}
	}
	fabricWake, bucket, slide := p.tickFabric(now)
	if fabricWake < wake {
		wake = fabricWake
	}
	p.wake, p.inertBucket, p.slideCooldown = wake, bucket, slide
}

// tickFabric runs one cycle of the fabric (everything in Tick except the
// DRMs) and returns the fabric's wake cycle, the CPI bucket an inert window
// starting next cycle would charge, and whether the blocked-without-firing
// cooldown keeps sliding. Action cycles return (now+1, bucketNone, false):
// conservatively, the next cycle must be simulated for real.
func (p *PE) tickFabric(now uint64) (uint64, inertBucket, bool) {
	if now < p.reconfigUntil {
		p.Stack.Reconfig++
		return p.reconfigUntil, bucketReconfig, false
	}
	if p.pending >= 0 {
		if p.sys.tracer != nil {
			p.trace(now, trace.KindReconfigEnd, p.stages[p.pending].Name(), uint64(p.pending))
		}
		p.activate(now, p.pending)
		p.pending = -1
	}
	if now < p.stallUntil {
		p.Stack.Stall++
		return p.stallUntil, bucketStall, false
	}
	if p.active < 0 {
		// Nothing ever activated: pick the first ready stage (free initial
		// configuration at program start, as in the paper's setup phase).
		p.scanStages()
		if idx := p.pick(now, -1); idx >= 0 {
			p.activate(now, idx)
		} else {
			return p.cooldownWake(now, -1), p.accountBlocked(stage.NoInput), false
		}
	}
	s := p.stages[p.active]
	fired := 0
	blocked := stage.Sleep
	// In/Out/Mem were hoisted into p.ctx at activation; only the per-cycle
	// fields are reset here.
	p.ctx.Now = now
	p.ctx.ExtraStall = 0
	p.ctx.FiredCtrl = false
	width := s.Width()
	for i := 0; i < width; i++ {
		st := s.Kernel.TryFire(&p.ctx)
		if st != stage.Fired {
			if i == 0 {
				blocked = st
			}
			break
		}
		fired++
		s.Firings++
		if p.ctx.FiredCtrl {
			break // control values are handled serially (Sec. 5.6)
		}
	}
	if fired > 0 {
		p.firedSinceAct = true
		p.Stack.Issued++
		if p.ctx.ExtraStall > 0 {
			p.stallUntil = now + 1 + p.ctx.ExtraStall
		}
		return now + 1, bucketNone, false
	}
	// Blocked. In Fifer mode, ask the scheduler for another stage.
	p.scanStages()
	slide := false
	if p.cfg.Mode == ModeFifer && len(p.stages) > 1 {
		if !p.firedSinceAct {
			// This configuration never fired: it looked ready but is
			// back-pressured in a way occupancies cannot see. Cool it down
			// so the scheduler explores other stages instead of ping-
			// ponging between mutually blocked ones.
			p.cooldownUntil[p.active] = now + schedCooldown
			slide = true
		}
		if idx := p.pick(now, p.active); idx >= 0 {
			p.beginReconfig(now, idx)
			p.Stack.Reconfig++
			return now + 1, bucketNone, false
		}
	}
	return p.cooldownWake(now, p.active), p.accountBlocked(blocked), slide
}

// cooldownWake returns the earliest future cycle at which pick(cycle, except)
// could newly succeed with today's queue state: the soonest cooldown expiry
// among stages that are ready but cooling. With none, only external token
// flow — some other component's action — can unblock this PE.
func (p *PE) cooldownWake(now uint64, except int) uint64 {
	w := horizonNever
	for i := range p.stages {
		if i == except || !p.scanReady[i] {
			continue
		}
		if cu := p.cooldownUntil[i]; now < cu && cu < w {
			w = cu
		}
	}
	return w
}

// pick implements the paper's most-work policy (Sec. 5.2) over stages other
// than `except`: the ready stage with the most input work, or -1 when no
// stage is ready.
func (p *PE) pick(now uint64, except int) int {
	best, bestWork := -1, 0
	for i := range p.stages {
		if i == except || now < p.cooldownUntil[i] || !p.scanReady[i] {
			continue
		}
		if w := p.scanWork[i]; w > bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

// beginReconfig starts the three-step reconfiguration process of Sec. 5.1:
// drain in-flight operations, load the new configuration from the L1 into
// the unused configuration slot (in parallel when double-buffered), then
// activate it (2-cycle dead time).
func (p *PE) beginReconfig(now uint64, next int) {
	var period uint64
	if !p.cfg.ZeroCostReconfig {
		drain := uint64(p.stages[p.active].Depth())
		load := p.configLoadCycles(now, p.stages[next])
		act := p.cfg.Fabric.ActivationCycles
		if p.cfg.DoubleBuffered {
			period = max(drain, load) + act
		} else {
			period = drain + load + act
		}
	}
	p.reconfigUntil = now + period
	p.pending = next
	p.SumReconfig += period
	p.Reconfigs++
	if p.sys.tracer != nil {
		p.trace(now, trace.KindReconfigBegin, p.stages[next].Name(), period)
	}
}

// configLoadCycles models streaming the next stage's configuration data from
// the L1 cache into the chained configuration cells, 64 bytes per cycle
// (Sec. 5.1). Configuration lines are cacheable, so the first switch to a
// stage may miss to the LLC while steady-state switches hit in the L1.
func (p *PE) configLoadCycles(now uint64, s *stage.Stage) uint64 {
	if s.Mapping == nil {
		return 10 // fixed cost for unmapped (test) stages
	}
	base := mem.Addr(s.Mapping.ConfigAddr)
	nlines := (s.Mapping.ConfigBytes + mem.LineBytes - 1) / mem.LineBytes
	var last uint64 = now
	for i := 0; i < nlines; i++ {
		ready := p.Mem.LoadTiming(now+uint64(i), base+mem.Addr(i*mem.LineBytes))
		if ready > last {
			last = ready
		}
	}
	return last - now
}

func (p *PE) activate(now uint64, idx int) {
	if p.Activations > 0 {
		p.SumResidence += now - p.lastActivate
	}
	p.lastActivate = now
	p.Activations++
	p.active = idx
	p.firedSinceAct = false
	// Hoist the per-cycle Ctx rebuild: In/Out/Mem only change on activation
	// (stage ports are wired once, at program build).
	s := p.stages[idx]
	p.ctx.In, p.ctx.Out, p.ctx.Mem = s.In, s.Out, p.Mem
	if p.sys.tracer != nil {
		p.trace(now, trace.KindStageSwitch, s.Name(), uint64(idx))
	}
}

// accountBlocked attributes a non-firing cycle to the queue or idle bucket
// and returns the bucket it charged (the bucket an inert window would keep
// charging). A PE is "idle" only when completely inactive — no resident
// stage has any input work and no DRM is busy — i.e., it is waiting on
// other PEs. Any other blockage is a full/empty-queue stall.
func (p *PE) accountBlocked(st stage.Status) inertBucket {
	if st == stage.NoOutput {
		p.Stack.Queue++
		return bucketQueue
	}
	for i := range p.stages {
		if p.scanWork[i] > 0 {
			p.Stack.Queue++
			return bucketQueue
		}
	}
	for _, d := range p.DRMs {
		if d.Busy() {
			p.Stack.Queue++
			return bucketQueue
		}
	}
	p.Stack.Idle++
	return bucketIdle
}

// Reconfiguring reports whether the PE is inside a reconfiguration period
// at the given cycle.
func (p *PE) Reconfiguring(now uint64) bool {
	return now < p.reconfigUntil || p.pending >= 0
}

// FaultDelayReconfig is a fault-injection hook (internal/faults): it
// extends an in-progress reconfiguration by extra cycles, modeling a
// configuration load that never arrives. It reports whether a
// reconfiguration was in progress to delay.
func (p *PE) FaultDelayReconfig(now uint64, extra uint64) bool {
	if !p.Reconfiguring(now) {
		return false
	}
	if p.reconfigUntil < now {
		p.reconfigUntil = now
	}
	p.reconfigUntil += extra
	return true
}

// MeanResidence returns the average residence time of a configuration on
// this PE, in cycles (Table 5).
func (p *PE) MeanResidence() float64 {
	n := p.Activations
	if n <= 1 {
		return 0
	}
	return float64(p.SumResidence) / float64(n-1)
}

// MeanReconfigPeriod returns the average reconfiguration period (Table 5).
func (p *PE) MeanReconfigPeriod() float64 {
	if p.Reconfigs == 0 {
		return 0
	}
	return float64(p.SumReconfig) / float64(p.Reconfigs)
}
