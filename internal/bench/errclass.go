package bench

import (
	"errors"
	"fmt"

	"fifer/internal/core"
)

// ErrJobTimeout reports that one job exceeded the sweep's per-job
// wall-clock deadline (Options.JobTimeout). The deadline is enforced
// through the core cancellation hook — the simulation goroutine is stopped
// cooperatively, never abandoned — so a timed-out job still surfaces its
// stop cycle and blocked-state excerpt under this error.
var ErrJobTimeout = errors.New("bench: job exceeded its wall-clock deadline")

// Error classes. Every job error maps onto exactly one class; the class is
// what the journal persists, what degraded tables print, and what Resume
// consults to decide replay-vs-reschedule.
const (
	ClassOK          = "ok"
	ClassCanceled    = "canceled"         // sweep canceled (Options.Cancel); rescheduled on resume
	ClassTimeout     = "timeout"          // per-job deadline; rescheduled on resume
	ClassPanic       = "panic"            // recovered panic (*PanicError)
	ClassCycleBudget = "cycle-budget"     // ErrCycleBudget: simulation budget exhausted
	ClassDeadlock    = "deadlock"         // watchdog tripped (core.ErrDeadlock)
	ClassInvariant   = "invariant"        // live audit / queue corruption (core.ErrInvariant)
	ClassMismatch    = "journal-mismatch" // resumed journal disagrees with the job list
	ClassError       = "error"            // any other failure
)

// ErrorClass maps a job error onto its journal/report class.
func ErrorClass(err error) string {
	var pe *PanicError
	var re *ReplayedError
	switch {
	case err == nil:
		return ClassOK
	case errors.As(err, &re):
		return re.Class
	case errors.Is(err, ErrJobTimeout):
		return ClassTimeout
	case errors.Is(err, core.ErrCanceled):
		return ClassCanceled
	case errors.As(err, &pe):
		return ClassPanic
	case errors.Is(err, ErrCycleBudget):
		return ClassCycleBudget
	case errors.Is(err, core.ErrDeadlock):
		return ClassDeadlock
	case errors.Is(err, core.ErrInvariant):
		return ClassInvariant
	default:
		return ClassError
	}
}

// abortError returns the first unclassified error among results, or nil.
// Classified failures — simulation verdicts (panic, deadlock, invariant,
// cycle budget) and deliberate stops (canceled, timeout) — degrade tables
// cell by cell; an unclassified error means the job list itself is wrong
// (unknown app or input), which degraded rendering cannot report usefully,
// so drivers abort on it.
func abortError(results []JobResult) error {
	for _, r := range results {
		if r.Err != nil && ErrorClass(r.Err) == ClassError {
			return r.Err
		}
	}
	return nil
}

// ReplayedError stands in for a failure that happened in a previous,
// journaled run: the journal persists the class and rendered message, not
// the original error chain, so a resumed sweep reports the failure without
// re-executing the job. ErrorClass returns the original class unchanged.
type ReplayedError struct {
	Class string // original ErrorClass
	Msg   string // original err.Error(), as journaled
}

// Error renders the journaled failure, marked as replayed.
func (e *ReplayedError) Error() string {
	return fmt.Sprintf("bench: replayed from journal (%s): %s", e.Class, e.Msg)
}
