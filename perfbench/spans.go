package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a pass, a job inside it, or
// a generator call or simulation inside a job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for passes
	Level  string `json:"level"`  // pass, job, generator, sim
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, level, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Level: level, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// add records a span whose bounds were observed elsewhere.
func (t *tracer) add(parent int, level, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Level: level, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// labeled runs f with a pprof "job" label on traced runs, so a CPU profile
// splits by job; untraced runs call f directly.
func (t *tracer) labeled(job string, f func()) {
	if t == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("job", job), func(context.Context) { f() })
}
