package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"

	"fifer/internal/trace"
)

// TraceSink collects per-job observability data across a sweep. Attach one
// via Options.Trace and every CGRA simulation the sweep runs gets its own
// event collector and metrics sampler wired into the core (the OOO
// baselines never enter the core loop, produce nothing, and are skipped).
// Collection is safe under any Options.Jobs because each job owns its
// collector; only registration takes the sink's lock. The sink holds one
// trace per job, keyed by Job.Key after the sweep's label.
//
// Tracing is observation only: outcomes and goldens are byte-identical
// with a sink attached or not, at any worker count (pinned by the
// differential test in determinism_test.go).
type TraceSink struct {
	// SampleCycles is the metrics sample period in cycles
	// (0 = core.DefaultMetricsCycles).
	SampleCycles uint64
	// BufEvents is each job's event-ring capacity
	// (0 = trace.DefaultBufEvents). When a run overflows the ring, the
	// oldest events are dropped flight-recorder style; Jobs reports drops.
	BufEvents int
	// MetricsOnly attaches each job's collector as a metrics and kernel
	// sampler only, not as an event tracer, for callers that export metrics
	// but no trace: the jobs then hold no event ring, and WriteTrace writes
	// them without events. Metrics rows and kernel counters are the same
	// either way.
	MetricsOnly bool

	mu   sync.Mutex
	jobs map[string]*trace.Collector
}

// NewTraceSink returns a sink sampling metrics every sampleCycles cycles.
func NewTraceSink(sampleCycles uint64) *TraceSink {
	return &TraceSink{SampleCycles: sampleCycles}
}

// add registers a finished job's collector. Empty collectors (OOO
// baselines) are dropped; a metrics-only CGRA job has rows, so it is kept.
// Two jobs under one key would leave one of them untraced, so a repeated
// key panics.
func (t *TraceSink) add(key string, col *trace.Collector) {
	if t == nil || col == nil || col.Empty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = map[string]*trace.Collector{}
	}
	if _, dup := t.jobs[key]; dup {
		panic(fmt.Sprintf("bench: trace sink already holds job %q", key))
	}
	t.jobs[key] = col
}

// TracedJob is one simulation's collected observability data.
type TracedJob struct {
	Key       string
	Collector *trace.Collector
}

// Jobs returns every traced job sorted by key, so exports are deterministic
// regardless of completion order or worker count.
func (t *TraceSink) Jobs() []TracedJob {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.jobs))
	for k := range t.jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]TracedJob, 0, len(keys))
	for _, k := range keys {
		out = append(out, TracedJob{Key: k, Collector: t.jobs[k]})
	}
	return out
}

// Dropped sums ring overwrites across all jobs; nonzero means the trace
// file holds each overflowing run's suffix, not its whole history.
func (t *TraceSink) Dropped() uint64 {
	var n uint64
	for _, j := range t.Jobs() {
		n += j.Collector.Dropped()
	}
	return n
}

// WriteTrace writes every traced job as one Chrome/Perfetto trace-event
// JSON document (one process per job, one thread per PE, ts in cycles).
func (t *TraceSink) WriteTrace(w io.Writer) error {
	jobs := t.Jobs()
	jts := make([]trace.JobTrace, 0, len(jobs))
	for _, j := range jobs {
		jts = append(jts, trace.JobTrace{Name: j.Key, Events: j.Collector.Events()})
	}
	return trace.WriteChrome(w, jts)
}

// WriteMetricsJSONL writes every traced job's metrics samples as JSONL.
func (t *TraceSink) WriteMetricsJSONL(w io.Writer) error {
	for _, j := range t.Jobs() {
		if err := trace.WriteMetricsJSONL(w, j.Key, j.Collector.Rows()); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetricsCSV writes every traced job's metrics samples as one CSV
// table (single header row).
func (t *TraceSink) WriteMetricsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "job,cycle,pe,issued,stall,queue,reconfig,idle,qtokens,drm_inflight")
	for _, j := range t.Jobs() {
		for _, r := range j.Collector.Rows() {
			fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				j.Key, r.Cycle, r.PE, r.Issued, r.Stall, r.Queue, r.Reconfig, r.Idle,
				r.QueueTokens, r.DRMInflight)
		}
	}
	return bw.Flush()
}
