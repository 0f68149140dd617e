package apps

import (
	"fmt"

	"fifer/internal/core"
	"fifer/internal/ooo"
)

// App is what one benchmark contributes to Run: the parts of a run that are
// the app's own. T is the app's functional output, read back from whichever
// system ran it and checked against the reference implementation.
type App[T any] struct {
	// Name labels the app in errors ("fifer-16pe prd: …").
	Name string
	// BackingBytes sizes the simulated memory of every system.
	BackingBytes int
	// Tweak, if non-nil, adjusts a CGRA configuration after Run has set it
	// up and before the caller's override runs.
	Tweak func(*core.Config)
	// OOO runs the app's trace on an OOO machine and returns its output.
	OOO func(*ooo.Machine) T
	// Build lays the pipeline out on sys and seeds it. It returns the
	// program that drives the run and a read-back of the output, valid once
	// the program has finished.
	Build func(sys *core.System, merged bool) (core.Program, func() T)
	// Check compares an output with the reference implementation.
	Check func(T) error
}

// Run executes app on one system and checks its output. It owns every
// decision a SystemKind implies, so all six benchmarks build each system
// the same way:
//
//   - OOO baselines get 1 or 4 cores and an LLC shrunk by LLCDivisor;
//   - CGRA systems start from DefaultConfig (Fifer) or StaticConfig, take
//     the app's BackingBytes, shrink the LLC by LLCDivisor, then apply the
//     app's Tweak and last the caller's override, so the override wins;
//   - every CGRA run is audited with CheckInvariants.
//
// Errors read "<kind> <app>: …".
func Run[T any](kind SystemKind, scale int, merged bool, override func(*core.Config), app App[T]) (Outcome, error) {
	out := Outcome{Kind: kind}
	var got T
	switch kind {
	case SerialOOO, MulticoreOOO:
		cores := 1
		if kind == MulticoreOOO {
			cores = 4
		}
		m := ooo.NewMachineLLCDiv(cores, app.BackingBytes, LLCDivisor(scale))
		got = app.OOO(m)
		out.Cycles = m.Cycles()
		out.Counts = collectOOOCounts(m)
		for _, c := range m.Cores {
			out.OOOIssued += c.IssuedCycles()
			out.OOOIdle += out.Cycles - c.Cycle()
		}
	case StaticPipe, FiferPipe:
		cfg := core.DefaultConfig()
		if kind == StaticPipe {
			cfg = core.StaticConfig()
		}
		cfg.BackingBytes = app.BackingBytes
		cfg.Hier.LLCBytes /= LLCDivisor(scale)
		if app.Tweak != nil {
			app.Tweak(&cfg)
		}
		if override != nil {
			override(&cfg)
		}
		sys, err := core.NewSystemChecked(cfg)
		if err != nil {
			return out, fmt.Errorf("%v %s: %w", kind, app.Name, err)
		}
		prog, result := app.Build(sys, merged)
		res, err := sys.Run(prog)
		if err != nil {
			return out, fmt.Errorf("%v %s: %w", kind, app.Name, err)
		}
		if err := sys.CheckInvariants(); err != nil {
			return out, fmt.Errorf("%v %s invariants: %w", kind, app.Name, err)
		}
		out.Cycles = res.Cycles
		out.Pipe = res
		out.Counts = collectPipeCounts(sys, res)
		got = result()
	default:
		return out, fmt.Errorf("unknown system kind %v", kind)
	}
	if err := app.Check(got); err != nil {
		return out, fmt.Errorf("%v %s: %w", kind, app.Name, err)
	}
	out.Verified = true
	return out, nil
}

// Halt is the program of a pipeline that needs no control-core rounds: the
// run ends the first time the system quiesces.
var Halt core.Program = core.ProgramFunc(func(*core.System) bool { return false })
