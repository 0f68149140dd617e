package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/core"
	"fifer/internal/trace"
)

// The -perfjson mode records the simulator's performance baseline: every
// selected app's first input is simulated twice on the Fifer pipeline —
// with the Config.NoFastForward oracle loop and with the default parking
// kernel — and the wall times, simulated cycles/second, speedup, and the
// share of PE-cycles the default kernel actually ticked land in one JSON
// document (BENCH_<n>.json in the repo root, by convention). Simulated
// cycle counts are deterministic and double-checked equal across both
// modes; wall times are whatever the host delivered, which is the point of
// a perf baseline.

// perfSchema tags perf baseline files; bump on incompatible changes.
// v2 added the sharded-kernel column; v3 dropped it with the sharded
// kernel and added executed_share.
const perfSchema = "fifer-perf-v3"

// perfApp is one application's timing comparison.
type perfApp struct {
	App                string  `json:"app"`
	Input              string  `json:"input"`
	Kind               string  `json:"kind"`
	Cycles             uint64  `json:"cycles"` // simulated, identical in both modes
	WallNSFast         int64   `json:"wall_ns_fast"`
	WallNSOracle       int64   `json:"wall_ns_oracle"`
	CyclesPerSecFast   float64 `json:"cycles_per_sec_fast"`
	CyclesPerSecOracle float64 `json:"cycles_per_sec_oracle"`
	Speedup            float64 `json:"speedup"`        // oracle wall / fast wall
	ExecutedShare      float64 `json:"executed_share"` // PE ticks / (PEs × cycles), default kernel
}

// perfFile is the whole baseline document.
type perfFile struct {
	Schema       string    `json:"schema"`
	Scale        int       `json:"scale"`
	Seed         uint64    `json:"seed"`
	GoVersion    string    `json:"go_version"`
	NumCPU       int       `json:"num_cpu"`
	Apps         []perfApp `json:"apps"`
	TotalSpeedup float64   `json:"total_speedup"` // sum(oracle wall) / sum(fast wall)
}

// runPerfJSON measures every selected app and writes the baseline to path.
func runPerfJSON(path string, opt bench.Options) error {
	names := opt.Apps
	if len(names) == 0 {
		names = bench.AppNames
	}
	pf := perfFile{Schema: perfSchema, Scale: opt.Scale, Seed: opt.Seed,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	var totalFast, totalOracle time.Duration
	for _, app := range names {
		input := bench.InputsOf(app)[0]
		timed := func(oracle bool, override func(*core.Config)) (apps.Outcome, time.Duration, error) {
			o := opt
			o.Jobs = 1
			o.NoFastForward = oracle
			start := time.Now()
			out, err := bench.RunOne(app, input, apps.FiferPipe, false, o, override)
			return out, time.Since(start), err
		}
		// The collector receives the kernel counters when Run returns; with a
		// sample period no run reaches, it costs one final metrics flush.
		col := trace.NewCollector(1)
		fastOut, fastD, err := timed(false, func(cfg *core.Config) {
			cfg.Metrics, cfg.MetricsCycles = col, math.MaxUint64
		})
		if err != nil {
			return fmt.Errorf("%s/%s fast-forward: %w", app, input, err)
		}
		oracleOut, oracleD, err := timed(true, nil)
		if err != nil {
			return fmt.Errorf("%s/%s oracle: %w", app, input, err)
		}
		if !reflect.DeepEqual(fastOut, oracleOut) {
			return fmt.Errorf("%s/%s: fast-forward outcome differs from the oracle loop — kernel bug, do not trust this baseline", app, input)
		}
		row := perfApp{
			App: app, Input: input, Kind: apps.FiferPipe.String(),
			Cycles:             fastOut.Cycles,
			WallNSFast:         fastD.Nanoseconds(),
			WallNSOracle:       oracleD.Nanoseconds(),
			CyclesPerSecFast:   float64(fastOut.Cycles) / fastD.Seconds(),
			CyclesPerSecOracle: float64(oracleOut.Cycles) / oracleD.Seconds(),
			Speedup:            float64(oracleD) / float64(fastD),
			ExecutedShare:      col.Kernel().ExecutedShare(),
		}
		pf.Apps = append(pf.Apps, row)
		totalFast += fastD
		totalOracle += oracleD
		fmt.Fprintf(os.Stderr, "perf %-6s %-8s %12d cycles  fast %10v  oracle %10v (%.2fx)  ticked %5.1f%% of PE-cycles\n",
			app, input, row.Cycles, fastD.Round(time.Microsecond), oracleD.Round(time.Microsecond), row.Speedup,
			100*row.ExecutedShare)
	}
	pf.TotalSpeedup = float64(totalOracle) / float64(totalFast)
	fmt.Fprintf(os.Stderr, "perf total: oracle %v, fast %v (%.2fx)\n",
		totalOracle.Round(time.Microsecond), totalFast.Round(time.Microsecond), pf.TotalSpeedup)
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
