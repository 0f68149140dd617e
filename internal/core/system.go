package core

import (
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/trace"
)

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

// Run drives the system until the program reports completion. It stops
// early with a *StopError (see stop.go) whose Reason is ErrCanceled once
// Cfg.Done is closed (polled before the first cycle and every
// cancelInterval cycles), ErrDeadlock when the progress watchdog sees no
// progress for Cfg.WatchdogCycles, ErrInvariant when the live audit finds
// inconsistent state or the queue layer panics with a typed corruption
// (recovered here, so a corrupted simulation fails as one job instead of
// crashing the process), and ErrMaxCycles when Cfg.MaxCycles elapse. A
// Cfg.Metrics sink that implements trace.KernelSink receives KernelStats
// when Run returns.
func (s *System) Run(prog Program) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*queue.Corruption)
			if !ok {
				panic(r)
			}
			s.settlePanic()
			err = s.stop(ErrInvariant, "corruption: %s: %s", c.Component, c.Detail)
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
	// The loop observes the machine only at boundary cycles: MaxCycles and
	// the multiples of each enabled period (0 disables one). cancelEvery
	// polls Cfg.Done, sampleEvery takes a metrics sample, wdInterval takes
	// a watchdog checkpoint and AuditCycles runs the live audit. Watchdog
	// checkpoints are half a window apart: two equal consecutive progress
	// signatures prove zero progress over at least half a window, and the
	// deadlock is reported within one full window of the last real
	// progress.
	var cancelEvery, sampleEvery, wdInterval uint64
	if s.Cfg.Done != nil {
		cancelEvery = cancelInterval
		select {
		case <-s.Cfg.Done:
			return res, s.stop(ErrCanceled, "")
		default:
		}
	}
	if s.Cfg.Metrics != nil {
		if sampleEvery = s.Cfg.MetricsCycles; sampleEvery == 0 {
			sampleEvery = DefaultMetricsCycles
		}
		if s.lastStacks == nil {
			s.lastStacks = make([]CPIStack, len(s.PEs))
		}
	}
	if s.Cfg.WatchdogCycles > 0 {
		wdInterval = max(s.Cfg.WatchdogCycles/2, 1)
	}
	periods := [...]uint64{cancelEvery, sampleEvery, wdInterval, s.Cfg.AuditCycles}
	// boundary returns the first boundary cycle after the current one.
	boundary := func() uint64 {
		next := s.Cfg.MaxCycles
		for _, p := range periods {
			if p > 0 {
				next = min(next, (s.Cycle/p+1)*p)
			}
		}
		return next
	}
	lastSig := s.progressSig()
	lastProgress := s.Cycle
	// observe makes the observations due at the current boundary cycle, in
	// the order the naive loop always made them: cancellation poll, metrics
	// sample, watchdog checkpoint, invariant audit, cycle budget. It
	// returns the next boundary. Every observation that reads
	// non-monotonic state (CPI stacks, occupancies, state dumps) settles
	// the parked PEs first; the watchdog signature reads only monotonic
	// counters and runs unsettled.
	observe := func() (uint64, error) {
		due := func(period uint64) bool { return period > 0 && s.Cycle%period == 0 }
		if due(cancelEvery) {
			select {
			case <-s.Cfg.Done:
				return 0, s.stop(ErrCanceled, "")
			default:
			}
		}
		if due(sampleEvery) {
			s.settle()
			s.sampleMetrics()
		}
		if due(wdInterval) {
			sig := s.progressSig()
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{Cycle: s.Cycle, PE: -1,
					Kind: trace.KindCheckpoint, Name: "watchdog", Arg: sig.firings})
			}
			if sig == lastSig {
				return 0, s.stop(ErrDeadlock, "no progress since cycle %d (window %d)%s",
					lastProgress, s.Cfg.WatchdogCycles, s.Cfg.shortWindowNote())
			}
			lastSig, lastProgress = sig, s.Cycle
		}
		if due(s.Cfg.AuditCycles) {
			s.settle()
			if err := s.AuditLive(); err != nil {
				return 0, err
			}
		}
		if s.Cycle >= s.Cfg.MaxCycles {
			return 0, s.stop(ErrMaxCycles, "MaxCycles=%d (deadlock or runaway program)", s.Cfg.MaxCycles)
		}
		return boundary(), nil
	}
	next := boundary()
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
		if s.Cycle >= next {
			if next, err = observe(); err != nil {
				return res, err
			}
		}
		// Whole-machine jump: every PE is parked past the next cycle, so
		// land the clock on the earlier of sysWake and the next boundary.
		// Skipped when the system just quiesced (the program may have
		// injected work the stale wakes don't see) and when forced.
		if !quiet && sysWake > s.Cycle && !force {
			w := min(sysWake, next)
			s.jumped += w - s.Cycle
			s.Cycle = w
			if s.Cycle >= next {
				if next, err = observe(); err != nil {
					return res, err
				}
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
