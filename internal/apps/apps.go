// Package apps holds the types shared by all six benchmark applications:
// the four evaluated systems, stage placement across PEs, and the run
// outcome consumed by the benchmark harness.
package apps

import (
	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/energy"
)

// SystemKind names the four evaluated systems (Sec. 7.1, Fig. 13 legend).
type SystemKind int

const (
	// SerialOOO: 1-core out-of-order Skylake-like baseline.
	SerialOOO SystemKind = iota
	// MulticoreOOO: 4-core out-of-order baseline (Fig. 13's normalization).
	MulticoreOOO
	// StaticPipe: 16-PE CGRA with static spatial pipelines (Fig. 11a).
	StaticPipe
	// FiferPipe: 16-PE Fifer with dynamic temporal pipelines (Fig. 11b).
	FiferPipe
)

func (k SystemKind) String() string {
	switch k {
	case SerialOOO:
		return "serial-ooo"
	case MulticoreOOO:
		return "4-core-ooo"
	case StaticPipe:
		return "static-16pe"
	case FiferPipe:
		return "fifer-16pe"
	}
	return "unknown"
}

// Kinds lists all four systems in Fig. 13's order.
var Kinds = []SystemKind{SerialOOO, MulticoreOOO, StaticPipe, FiferPipe}

// Placement maps a pipeline's stages onto PEs. Fifer places every stage of
// replica r on PE r (time-multiplexed); the static baseline spreads each
// replica's stages across consecutive PEs, one stage per PE, which divides
// the PE count by the stage count (Sec. 7.1).
type Placement struct {
	Replicas int
	PEOf     func(replica, stageIdx int) int
}

// PlaceFor derives the placement for a pipeline with nstages stages on a
// system with cfg.PEs processing elements under cfg.Mode.
func PlaceFor(cfg core.Config, nstages int) Placement {
	if cfg.Mode == core.ModeFifer {
		return Placement{
			Replicas: cfg.PEs,
			PEOf:     func(replica, _ int) int { return replica },
		}
	}
	reps := cfg.PEs / nstages
	if reps < 1 {
		reps = 1
	}
	return Placement{
		Replicas: reps,
		PEOf:     func(replica, stageIdx int) int { return (replica*nstages + stageIdx) % cfg.PEs },
	}
}

// PlaceDFG maps a stage's DFG onto sys's fabric, replicating it when the
// system enables SIMD replication. A stage that does not fit is a bug in the
// application's stage split, so it panics.
func PlaceDFG(sys *core.System, g *cgra.DFG) *cgra.Mapping {
	m, err := cgra.Place(g, sys.Cfg.Fabric, sys.Cfg.SIMDReplication)
	if err != nil {
		panic(err)
	}
	return m
}

// Outcome is one (app, input, system) measurement.
type Outcome struct {
	Kind   SystemKind
	Cycles uint64
	// Pipe holds CGRA-system details (zero-valued for OOO runs).
	Pipe core.Result
	// OOOIssued is the OOO systems' issue-bandwidth cycles (instrs/width,
	// summed over cores); OOOIdle is barrier-wait cycles summed over cores.
	OOOIssued uint64
	OOOIdle   uint64
	// Energy accounting inputs gathered from the run.
	Counts energy.Counts
	// Verified is set when the run's functional output matched the
	// reference implementation.
	Verified bool
}

// Owner computes the contiguous-block shard owner of element v among n
// elements split across r shards ("examining bits of the id", Sec. 5.6 —
// we use the high bits, i.e. contiguous blocks, which also makes per-shard
// scans contiguous in memory).
func Owner(v, n, r int) int {
	block := (n + r - 1) / r
	o := v / block
	if o >= r {
		o = r - 1
	}
	return o
}

// OwnedRange returns shard s's [lo, hi) element range.
func OwnedRange(s, n, r int) (lo, hi int) {
	block := (n + r - 1) / r
	lo = s * block
	hi = lo + block
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}
