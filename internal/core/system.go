package core

import (
	"errors"
	"fmt"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/trace"
)

// ErrMaxCycles reports that a run elapsed Cfg.MaxCycles before the program
// quiesced (deadlock or runaway program). Run's error wraps it, so callers
// up the stack (including the bench harness) can detect budget exhaustion
// with errors.Is even through their own wrapping.
var ErrMaxCycles = errors.New("core: exceeded MaxCycles")

// ErrDeadlock reports that the progress watchdog saw no component of the
// system make progress for Cfg.WatchdogCycles — a deadlock caught long
// before the MaxCycles budget would have burned down. The returned error is
// a *DeadlockError; errors.As exposes the structured DeadlockReport.
var ErrDeadlock = errors.New("core: simulation deadlocked (watchdog)")

// ErrInvariant reports that the live invariant audit (Cfg.AuditCycles)
// found the simulation in an internally inconsistent state, or that the
// queue layer raised a typed corruption that Run recovered. The wrapped
// message names the failing invariant and component.
var ErrInvariant = errors.New("core: simulation invariant violated")

// System is a complete CGRA-based machine: PEs, the shared cache hierarchy,
// the functional backing store, and the control core's run loop (Fig. 4 /
// Fig. 7). Whether it behaves as Fifer or as the static-pipeline baseline is
// set by Config.Mode.
type System struct {
	Cfg     Config
	Backing *mem.Backing
	Hier    *mem.Hierarchy
	PEs     []*PE
	Cycle   uint64

	arbiters []*queue.Arbiter

	// Run-loop state (horizon.go): curPE is the PE currently ticking (-1
	// between ticks), which the exchange hooks use to learn each credit
	// port's producer. ticks, jumped and catchUps are the KernelStats
	// counters.
	curPE    int
	ticks    uint64
	jumped   uint64
	catchUps uint64

	// hooks run at the top of every cycle, before the PEs tick. They exist
	// for observers and fault injectors (internal/faults); Run never skips
	// them, and an empty list costs one length check per cycle.
	hooks []func(s *System, now uint64)

	// tracer caches Cfg.Tracer for the nil-checked emission sites; the
	// metrics fields hold the sampler's per-PE CPI-stack snapshots (see
	// observe.go). All of them are nil/zero — and cost nothing — when
	// observability is off.
	tracer     trace.Tracer
	lastStacks []CPIStack
	lastSample uint64
}

// NewSystem builds a system from cfg, panicking on an invalid config; use
// NewSystemChecked to get validation errors instead of panics.
func NewSystem(cfg Config) *System {
	s, err := NewSystemChecked(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemChecked builds a system from cfg after validating it, returning
// an error (rather than a panic) for non-positive cycle budgets, queue or
// backing sizes. Every PE gets its own private caches, so Hier.Clients is
// always set to PEs: changing PEs alone resizes the machine.
func NewSystemChecked(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Hier.Clients = cfg.PEs
	s := &System{
		Cfg:     cfg,
		Backing: mem.NewBacking(cfg.BackingBytes),
		Hier:    mem.NewHierarchy(cfg.Hier),
		tracer:  cfg.Tracer,
		curPE:   -1,
	}
	// PEs live in one contiguous backing array so the run loop's per-cycle
	// sweep walks sequential memory instead of pointer-chasing individually
	// boxed PEs; s.PEs keeps the pointer-slice shape the rest of the code
	// works in.
	pes := make([]PE, cfg.PEs)
	s.PEs = make([]*PE, cfg.PEs)
	for i := range pes {
		pes[i].init(i, s)
		s.PEs[i] = &pes[i]
	}
	return s, nil
}

// OnCycle registers f to run at the start of every simulated cycle. It is
// the seam fault injectors use to corrupt a live system at a chosen cycle.
func (s *System) OnCycle(f func(s *System, now uint64)) {
	s.hooks = append(s.hooks, f)
}

// PE returns processing element i.
func (s *System) PE(i int) *PE { return s.PEs[i] }

// InterPEQueue allocates a credited inter-PE queue: the buffer lives in the
// consumer PE's queue memory; producers get credit ports (Sec. 5.6).
func (s *System) InterPEQueue(consumer int, name string, capTokens, producers int) *queue.Arbiter {
	q := s.PEs[consumer].AllocQueue(name, capTokens)
	a := queue.NewArbiter(q, producers)
	s.exchangeHooks(a, consumer)
	s.arbiters = append(s.arbiters, a)
	return a
}

// Arbiters returns all inter-PE queue arbiters (for invariant checks).
func (s *System) Arbiters() []*queue.Arbiter { return s.arbiters }

// Program is the control-core view of an application: it set up the
// pipelines before Run and is consulted at quiescence points. Returning
// true means new work was injected (e.g. the next BFS round); false means
// the program is complete.
type Program interface {
	Quiesced(sys *System) bool
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(sys *System) bool

// Quiesced implements Program.
func (f ProgramFunc) Quiesced(sys *System) bool { return f(sys) }

// Result summarizes a run.
type Result struct {
	Cycles        uint64
	Stacks        []CPIStack // per PE
	Total         CPIStack   // summed over PEs
	Firings       uint64     // total datapath firings
	Rounds        uint64     // times the program injected new work
	MeanResidence float64
	MeanReconfig  float64
	Reconfigs     uint64

	// PEActivations is each PE's completed stage activations — the counter
	// the trace invariant suite reconciles per-PE stage-switch events
	// against.
	PEActivations []uint64
}

// Run drives the system until the program reports completion. It fails with
// ErrMaxCycles when Cfg.MaxCycles elapse first, with ErrDeadlock when the
// progress watchdog sees no progress for Cfg.WatchdogCycles, with
// ErrInvariant when the live audit finds inconsistent state (including
// queue-layer corruption panics, which are recovered here so a corrupted
// simulation fails as one job instead of crashing the process), and with
// ErrCanceled when Cfg.Done is closed (checked before the first cycle and
// at watchdog-checkpoint granularity thereafter). A Cfg.Metrics sink that
// implements trace.KernelSink receives KernelStats when Run returns.
func (s *System) Run(prog Program) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*queue.Corruption)
			if !ok {
				panic(r)
			}
			s.settlePanic()
			err = fmt.Errorf("%w: corruption: %s: %s\n%s",
				ErrInvariant, c.Component, c.Detail, s.BlockedSummary(dumpExcerptLines))
		}
		if ks, ok := s.Cfg.Metrics.(trace.KernelSink); ok {
			ks.SampleKernel(s.KernelStats())
		}
	}()
	return s.run(prog)
}

// settlePanic settles the machine to the cycle a PE tick panicked in: PEs
// the sweep had already passed without ticking owe this cycle's inert
// charge, the rest owe charges up to it.
func (s *System) settlePanic() {
	s.settle()
	for _, pe := range s.PEs[:max(s.curPE, 0)] {
		if pe.caughtUp == s.Cycle {
			pe.advanceInert(s.Cycle+1, 1)
			pe.caughtUp = s.Cycle + 1
		}
	}
	s.curPE = -1
}

// run is the simulation kernel: each cycle it ticks, in ascending id order,
// only the PEs that can act, parks the rest with their accounting deferred,
// and jumps the clock when every PE is parked (horizon.go).
func (s *System) run(prog Program) (res Result, err error) {
	// The watchdog compares monotonic progress counters at checkpoints half
	// a window apart: two equal consecutive snapshots prove zero progress
	// over at least half a window, and the deadlock is reported within one
	// full window of the last real progress.
	var wdInterval uint64
	if s.Cfg.WatchdogCycles > 0 {
		if wdInterval = s.Cfg.WatchdogCycles / 2; wdInterval == 0 {
			wdInterval = 1
		}
	}
	// Cancellation rides the watchdog's checkpoint cadence so it adds no
	// per-cycle work of its own; with the watchdog disabled it falls back
	// to a fixed polling interval.
	var cancelEvery uint64
	if s.Cfg.Done != nil {
		if cancelEvery = wdInterval; cancelEvery == 0 {
			cancelEvery = cancelInterval
		}
		select {
		case <-s.Cfg.Done:
			return res, s.canceledError()
		default:
		}
	}
	// Metrics sampling rides its own period; zero Cfg.Metrics keeps
	// sampleEvery at 0, reducing the per-cycle cost to one comparison.
	var sampleEvery uint64
	if s.Cfg.Metrics != nil {
		if sampleEvery = s.Cfg.MetricsCycles; sampleEvery == 0 {
			sampleEvery = DefaultMetricsCycles
		}
		if s.lastStacks == nil {
			s.lastStacks = make([]CPIStack, len(s.PEs))
		}
	}
	lastSig := s.progressSig()
	lastProgress := s.Cycle
	// checks runs the per-cycle observation points at the current (already
	// incremented) cycle, in the order the naive loop runs them:
	// cancellation poll, metrics sample, watchdog checkpoint, invariant
	// audit, cycle budget. The clock jump calls it too, after landing
	// exactly on the next boundary, so every observation happens at its
	// original cycle. Every boundary that reads non-monotonic state (CPI
	// stacks, occupancies, state dumps) settles the parked PEs first; the
	// watchdog signature reads only monotonic counters and runs unsettled.
	checks := func() (stop bool, err error) {
		if cancelEvery > 0 && s.Cycle%cancelEvery == 0 {
			select {
			case <-s.Cfg.Done:
				s.settle()
				return true, s.canceledError()
			default:
			}
		}
		if sampleEvery > 0 && s.Cycle%sampleEvery == 0 {
			s.settle()
			s.sampleMetrics()
		}
		if wdInterval > 0 && s.Cycle%wdInterval == 0 {
			sig := s.progressSig()
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{Cycle: s.Cycle, PE: -1,
					Kind: trace.KindCheckpoint, Name: "watchdog", Arg: sig.firings})
			}
			if sig == lastSig {
				s.settle()
				return true, s.deadlockError(lastProgress)
			}
			lastSig, lastProgress = sig, s.Cycle
		}
		if s.Cfg.AuditCycles > 0 && s.Cycle%s.Cfg.AuditCycles == 0 {
			s.settle()
			if aerr := s.AuditLive(); aerr != nil {
				return true, aerr
			}
		}
		if s.Cycle >= s.Cfg.MaxCycles {
			s.settle()
			return true, fmt.Errorf("%w: MaxCycles=%d (deadlock or runaway program)\n%s",
				ErrMaxCycles, s.Cfg.MaxCycles, s.BlockedSummary(dumpExcerptLines))
		}
		return false, nil
	}
	for {
		now := s.Cycle
		// OnCycle hooks (fault injectors) may mutate anything, so they force
		// every PE to settle and tick, as does the NoFastForward oracle.
		force := s.Cfg.NoFastForward || len(s.hooks) > 0
		for _, f := range s.hooks {
			f(s, now)
		}
		// The sweep: tick the PEs that can act — woken, marked dirty by an
		// exchange hook or a gate release, or forced — and leave the rest
		// parked. sysWake needs no dirty term: a hook only fires inside an
		// acting PE's tick, and that PE's wake is now+1.
		sysWake := horizonNever
		var ticked uint64
		for _, pe := range s.PEs {
			if force || pe.dirty || pe.wake <= now {
				s.peCatchUp(pe, now)
				pe.dirty = false
				s.curPE = pe.ID
				pe.Tick(now)
				pe.caughtUp = now + 1
				ticked++
			}
			if pe.wake < sysWake {
				sysWake = pe.wake
			}
		}
		s.curPE = -1
		s.ticks += ticked
		// A parked PE's frozen state answers Busy exactly as a ticked one.
		quiet := true
		for _, pe := range s.PEs {
			if pe.Busy(now) {
				quiet = false
				break
			}
		}
		s.Cycle++
		if quiet {
			s.settle()
			if !prog.Quiesced(s) {
				break
			}
			res.Rounds++
			// Injection bypasses the queue hooks (programs seed local queues
			// directly), so every PE ticks next cycle.
			for _, pe := range s.PEs {
				pe.dirty = true
			}
		}
		if stop, cerr := checks(); stop {
			return res, cerr
		}
		// Whole-machine jump: every PE is parked past the next cycle, so
		// land the clock on the earlier of sysWake and the next observation
		// boundary. Skipped when the system just quiesced (the program may
		// have injected work the stale wakes don't see) and when forced.
		if !quiet && sysWake > s.Cycle && !force {
			w := min(sysWake, s.Cfg.MaxCycles)
			for _, period := range [...]uint64{cancelEvery, sampleEvery, wdInterval, s.Cfg.AuditCycles} {
				if period > 0 {
					w = min(w, (s.Cycle/period+1)*period)
				}
			}
			s.jumped += w - s.Cycle
			s.Cycle = w
			if stop, cerr := checks(); stop {
				return res, cerr
			}
		}
	}
	s.settle()
	s.finishRun(&res)
	return res, nil
}

// finishRun flushes the final partial metrics window and aggregates per-PE
// statistics into res, against settled machine state.
func (s *System) finishRun(res *Result) {
	res.Cycles = s.Cycle
	// Flush the final partial metrics window so per-PE deltas sum to the
	// run's cycle count exactly (skipped when the last period landed on the
	// final cycle — the deltas would all be zero).
	if s.Cfg.Metrics != nil && s.Cycle != s.lastSample {
		s.sampleMetrics()
	}
	var sumRes, sumRec, nAct, nRec uint64
	for _, pe := range s.PEs {
		res.Stacks = append(res.Stacks, pe.Stack)
		res.Total.Add(pe.Stack)
		res.PEActivations = append(res.PEActivations, pe.Activations)
		for _, st := range pe.stages {
			res.Firings += st.Firings
		}
		sumRes += pe.SumResidence
		sumRec += pe.SumReconfig
		if pe.Activations > 1 {
			nAct += pe.Activations - 1
		}
		nRec += pe.Reconfigs
	}
	if nAct > 0 {
		res.MeanResidence = float64(sumRes) / float64(nAct)
	}
	if nRec > 0 {
		res.MeanReconfig = float64(sumRec) / float64(nRec)
	}
	res.Reconfigs = nRec
}

// CheckInvariants verifies conservation properties after a run; it is used
// by integration tests. It returns an error describing the first violation.
func (s *System) CheckInvariants() error {
	for _, pe := range s.PEs {
		total := pe.Stack.Total()
		if total != s.Cycle {
			return fmt.Errorf("pe%d: CPI stack sums to %d, want %d cycles", pe.ID, total, s.Cycle)
		}
		if got := pe.QMem.Buffered(); got != 0 {
			return fmt.Errorf("pe%d: %d tokens still buffered after completion", pe.ID, got)
		}
		for _, d := range pe.DRMs {
			if d.Busy() {
				return fmt.Errorf("%s: still busy after completion", d.Name())
			}
		}
	}
	for _, a := range s.arbiters {
		if got, want := a.TotalCredits(), a.Queue().Cap(); got != want {
			return fmt.Errorf("arbiter %q: %d credits outstanding, want %d", a.Queue().Name(), got, want)
		}
	}
	return nil
}
