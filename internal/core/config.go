package core

import (
	"fmt"

	"fifer/internal/cgra"
	"fifer/internal/mem"
	"fifer/internal/trace"
)

// Mode selects between the two CGRA-based systems the paper evaluates.
type Mode int

const (
	// ModeFifer: dynamic temporal pipelining — stages time-multiplexed per
	// PE under scheduler control (Fig. 11b).
	ModeFifer Mode = iota
	// ModeStatic: static spatial pipeline — each stage pinned to one PE for
	// the whole run; no scheduler (Fig. 11a).
	ModeStatic
)

func (m Mode) String() string {
	if m == ModeStatic {
		return "static"
	}
	return "fifer"
}

// Config holds all architectural parameters of a CGRA-based system
// (Table 2 plus the Fifer-specific mechanisms of Sec. 5).
type Config struct {
	PEs            int                 // number of processing elements (16)
	Fabric         cgra.FabricConfig   // per-PE reconfigurable array
	QueueMemBytes  int                 // per-PE queue SRAM (16 KB)
	DRMsPerPE      int                 // decoupled reference machines per PE (4)
	DRMOutstanding int                 // max in-flight accesses per DRM
	DRMIssueWidth  int                 // accesses launched per DRM per cycle
	Hier           mem.HierarchyConfig // cache hierarchy (Table 2); Clients is set to PEs
	BackingBytes   int                 // simulated DRAM capacity

	Mode             Mode
	DoubleBuffered   bool // double-buffered configuration cells (Sec. 5.1)
	ZeroCostReconfig bool // idealized free reconfiguration (Sec. 8.3 ablation)
	SIMDReplication  bool // replicate small datapaths to fill the fabric (Sec. 5.6)

	MaxCycles uint64 // cycle budget, a safety limit; Run fails beyond this

	// NoFastForward disables per-PE parking and the whole-machine clock jump
	// (horizon.go) and makes Run tick every PE on every cycle naively. The
	// default kernel produces bit-identical results — the differential suite
	// holds every run surface (Result, goldens, metrics, traces) equal
	// between the two — so this exists as the test oracle and as an escape
	// hatch, not a mode anyone should need.
	NoFastForward bool

	// WatchdogCycles is the progress watchdog's window: if no component of
	// the system (datapath firings, queue traffic, memory accesses,
	// reconfiguration completions) makes progress for this many cycles, Run
	// fails fast with a *StopError for ErrDeadlock instead of burning the
	// rest of the MaxCycles budget. 0 disables the watchdog.
	// The watchdog only observes monotonic counters; it never perturbs the
	// simulation, so results are identical with it on or off.
	WatchdogCycles uint64

	// AuditCycles is the live invariant audit's period: every AuditCycles
	// cycles Run validates credit conservation, queue occupancy bounds,
	// queue-SRAM byte accounting, and DRM inflight accounting, failing with
	// ErrInvariant on the first violation. 0 disables the audit. Like the
	// watchdog it is read-only and cannot change simulation results.
	AuditCycles uint64

	// Done, when non-nil, is the cooperative cancellation hook: Run polls
	// it before the first cycle and every cancelInterval (65536) cycles
	// after it, and stops with a *StopError for ErrCanceled once the
	// channel is closed. The hook only ends the run early; it never
	// perturbs the cycles that did execute, so results are bit-identical
	// whether Done is nil or non-nil-but-never-closed. A nil Done adds no
	// boundary cycles; a non-nil one makes clock jumps also stop at its
	// polls.
	Done <-chan struct{}

	// Tracer, when non-nil, receives a typed trace.Event at every
	// observable simulation event: stage switches, reconfiguration
	// begin/end, queue full/ready stall edges, DRM issues and responses,
	// inter-PE credit grants and returns, and watchdog checkpoints. The
	// tracer only observes value types the simulation already computes, so
	// results are bit-identical with it attached or nil; a nil Tracer costs
	// one predictable branch per potential event and zero allocations on
	// the hot path (pinned by a testing.AllocsPerRun benchmark).
	Tracer trace.Tracer

	// Metrics, when non-nil, receives one trace.MetricsRow per PE every
	// MetricsCycles cycles (DefaultMetricsCycles when zero) plus one final
	// partial-window sample at completion, so every PE's deltas sum to the
	// run's cycle count exactly. Like Tracer it is read-only.
	Metrics       trace.MetricsSink
	MetricsCycles uint64
}

// DefaultMetricsCycles is the metrics sample period used when Config.Metrics
// is set but MetricsCycles is zero.
const DefaultMetricsCycles = 4096

// DefaultConfig returns the paper's 16-PE Fifer system.
func DefaultConfig() Config {
	pes := 16
	return Config{
		PEs:             pes,
		Fabric:          cgra.DefaultFabric(),
		QueueMemBytes:   16 << 10,
		DRMsPerPE:       4,
		DRMOutstanding:  16,
		DRMIssueWidth:   4,
		Hier:            mem.DefaultPEHierarchy(pes),
		BackingBytes:    1 << 30,
		Mode:            ModeFifer,
		DoubleBuffered:  true,
		SIMDReplication: true,
		MaxCycles:       400_000_000,
		WatchdogCycles:  1_000_000,
		AuditCycles:     1024,
	}
}

// StaticConfig returns the baseline static-spatial-pipeline system: the same
// hardware without the scheduler (it retains DRMs, per Sec. 7.1).
func StaticConfig() Config {
	c := DefaultConfig()
	c.Mode = ModeStatic
	return c
}

// WithQueueScale returns a copy of c with the per-PE queue memory scaled by
// factor (Fig. 16's sweep: 0.25× to 4× of 16 KB).
func (c Config) WithQueueScale(factor float64) Config {
	c.QueueMemBytes = int(float64(c.QueueMemBytes) * factor)
	return c
}

// Validate reports the first structural problem that would make a system
// built from c misbehave in a hard-to-diagnose way. Hier.Clients is not
// checked: NewSystemChecked derives it from PEs.
func (c *Config) Validate() error {
	switch {
	case c.PEs <= 0:
		return fmt.Errorf("core: config needs at least one PE (PEs=%d)", c.PEs)
	case c.MaxCycles == 0:
		return fmt.Errorf("core: config needs a positive MaxCycles cycle budget")
	case c.QueueMemBytes <= 0:
		return fmt.Errorf("core: config needs positive per-PE queue memory (QueueMemBytes=%d)", c.QueueMemBytes)
	case c.DRMsPerPE < 0:
		return fmt.Errorf("core: negative DRMsPerPE %d", c.DRMsPerPE)
	case c.DRMsPerPE > 0 && c.DRMOutstanding <= 0:
		return fmt.Errorf("core: config needs positive DRMOutstanding (got %d with %d DRMs/PE)",
			c.DRMOutstanding, c.DRMsPerPE)
	case c.BackingBytes <= 0:
		return fmt.Errorf("core: config needs a positive BackingBytes store (got %d)", c.BackingBytes)
	case uint64(c.BackingBytes) > mem.MaxBackingBytes:
		return fmt.Errorf("core: BackingBytes %d exceeds the caches' %d-byte limit",
			c.BackingBytes, uint64(mem.MaxBackingBytes))
	}
	return nil
}
