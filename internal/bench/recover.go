package bench

import (
	"fmt"
	"runtime/debug"

	"fifer/internal/apps"
)

// PanicError captures a panic that escaped one simulation job: the panic
// value plus the goroutine stack at the point of recovery, tagged with the
// job's identity so a batch report names the culprit directly instead of
// requiring the reader to cross-reference result indices. A sweep
// converts panics into this error so a corrupted or misconfigured job fails
// alone while the rest of the sweep completes with untouched results.
//
// Note the division of labor with the core layer: Run recovers the queue
// layer's typed corruption panics itself (into core.ErrInvariant, with a
// state-dump excerpt), so what reaches this recovery is the unexpected
// remainder — bad configs panicking in NewSystem, nil derefs, index errors.
type PanicError struct {
	Job   Job // the job that panicked
	Value any
	Stack []byte
}

// Error renders the job identity and panic value followed by the captured
// stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("bench: simulation %s panicked: %v\n%s", e.Job.Key(), e.Value, e.Stack)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As reach through a recovered panic(err) to the original error
// chain. Non-error panic values unwrap to nothing.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// protect wraps a job-running function with panic recovery.
func protect(run jobFunc) jobFunc {
	return func(j Job, opt Options) (out apps.Outcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				out = apps.Outcome{}
				err = &PanicError{Job: j, Value: r, Stack: debug.Stack()}
			}
		}()
		return run(j, opt)
	}
}
