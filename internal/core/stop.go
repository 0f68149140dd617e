package core

import (
	"errors"
	"fmt"
	"strings"
)

// The four reasons Run stops before the program completes. Every error Run
// returns is a *StopError whose Reason is one of them, so callers detect a
// reason with errors.Is through any further wrapping (the bench harness
// adds job identity on top) and read where and why with errors.As.
var (
	// ErrCanceled reports that Cfg.Done was closed before the program
	// quiesced.
	ErrCanceled = errors.New("core: simulation canceled")
	// ErrDeadlock reports that the progress watchdog saw no component of the
	// system make progress for Cfg.WatchdogCycles: a deadlock caught long
	// before the MaxCycles budget would have burned down.
	ErrDeadlock = errors.New("core: simulation deadlocked (watchdog)")
	// ErrInvariant reports that the live audit (Cfg.AuditCycles) or
	// CheckInvariants found the simulation internally inconsistent, or that
	// the queue layer raised a typed corruption that Run recovered.
	ErrInvariant = errors.New("core: simulation invariant violated")
	// ErrMaxCycles reports that Cfg.MaxCycles elapsed before the program
	// quiesced (a deadlock with the watchdog off, or a runaway program).
	ErrMaxCycles = errors.New("core: exceeded MaxCycles (raise Config.MaxCycles through an override)")
)

// StopError says where and why Run stopped early. A stopped run is often
// one suspected of being stuck, so besides the reason it carries what each
// blocked component was waiting on and a state excerpt: the failure is
// diagnosable from the error alone, without re-running under a debugger.
type StopError struct {
	Reason  error      // ErrCanceled, ErrDeadlock, ErrInvariant or ErrMaxCycles
	Cycle   uint64     // the cycle at which Run stopped
	Detail  string     // what the detector saw; empty for a cancel
	WaitFor []WaitEdge // what each blocked component waits on
	Dump    string     // truncated Dump() excerpt
}

// Error renders the reason, stop cycle and detail, then the wait-for edges
// and the dump excerpt.
func (e *StopError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v at cycle %d", e.Reason, e.Cycle)
	if e.Detail != "" {
		fmt.Fprintf(&b, ": %s", e.Detail)
	}
	for _, edge := range e.WaitFor {
		fmt.Fprintf(&b, "\n  wait-for: %s", edge)
	}
	if e.Dump != "" {
		fmt.Fprintf(&b, "\n%s", e.Dump)
	}
	return b.String()
}

// Unwrap makes errors.Is(err, e.Reason) hold.
func (e *StopError) Unwrap() error { return e.Reason }

// stop settles the machine and returns the StopError for reason at the
// current cycle, with the detail formatted from format and args.
func (s *System) stop(reason error, format string, args ...any) error {
	s.settle()
	return &StopError{
		Reason:  reason,
		Cycle:   s.Cycle,
		Detail:  fmt.Sprintf(format, args...),
		WaitFor: s.WaitFor(),
		Dump:    truncateLines(s.Dump(), dumpExcerptLines),
	}
}

// shortWindowNote notes, for a deadlock report, a watchdog window shorter
// than one access that misses every cache level: such a window can close
// while a healthy PE waits on memory.
func (c Config) shortWindowNote() string {
	h := c.Hier
	if path := h.L1Latency + h.LLCLatency + h.MemLatency; c.WatchdogCycles < path {
		return fmt.Sprintf("; the window is shorter than the PE hierarchy's miss path (L1 + LLC + memory latency = %d + %d + %d = %d cycles), so a PE waiting on memory may only look stalled",
			h.L1Latency, h.LLCLatency, h.MemLatency, path)
	}
	return ""
}

// cancelInterval is how often Run polls Cfg.Done: frequent enough that
// cancellation latency stays far below a second of wall-clock, rare enough
// that the poll never shows up in a profile.
const cancelInterval = 65536
