package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"fifer/internal/apps"
	"fifer/internal/bench"
	"fifer/internal/core"
	"fifer/internal/energy"
)

// defaultSeed is the seed the committed digests were recorded at; it is
// bench.DefaultOptions' seed, the one fiferbench uses unless told otherwise.
var defaultSeed = bench.DefaultOptions().Seed

// digestFile holds one digest per (app, input, system, scale) at
// defaultSeed, keyed "app/input/system@scale". Regenerate it with
// -update-digests after a change that is meant to alter simulated results.
const digestFile = "perfbench/digests.json"

//go:embed digests.json
var digestJSON []byte

// digest fingerprints everything a simulation reports about the simulated
// machine: cycles, the per-PE and total CPI stacks, firings, reconfigs and
// the energy-model counts. A simulator-only change must leave it alone.
func digest(o apps.Outcome) string {
	b, err := json.Marshal(struct {
		Cycles, Firings, Reconfigs uint64
		Stacks                     []core.CPIStack
		Total                      core.CPIStack
		Counts                     energy.Counts
		OOOIssued, OOOIdle         uint64
	}{o.Cycles, o.Pipe.Firings, o.Pipe.Reconfigs, o.Pipe.Stacks, o.Pipe.Total, o.Counts, o.OOOIssued, o.OOOIdle})
	if err != nil {
		panic(err) // plain integers always marshal
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checker judges every simulation a run makes. A simulation fails if it
// errored, if its output did not match the reference implementation, or
// if its digest differs from the committed one (at defaultSeed) or from
// the same job's digest in an earlier pass of this run (any other seed).
type checker struct {
	scale     int
	want      map[string]string // committed digests at defaultSeed
	seen      map[string]string // this run's digests at other seeds
	log       io.Writer
	attempted int
	failed    int
}

func newChecker(scale int, log io.Writer) (*checker, error) {
	c := &checker{scale: scale, seen: map[string]string{}, log: log}
	if err := json.Unmarshal(digestJSON, &c.want); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return c, nil
}

func digestKey(job string, scale int) string { return fmt.Sprintf("%s@%d", job, scale) }

// check judges every simulation of a pass run at seed.
func (c *checker) check(p passResult, seed uint64) {
	for _, s := range p.Sims {
		c.attempted++
		key := digestKey(s.Key, c.scale)
		problem := ""
		switch {
		case s.Err != nil:
			problem = s.Err.Error()
		case !s.Outcome.Verified:
			problem = "output differs from the reference implementation"
		case seed == defaultSeed:
			d := digest(s.Outcome)
			if want, ok := c.want[key]; !ok {
				problem = "no committed digest"
			} else if d != want {
				problem = fmt.Sprintf("digest %s, committed %s", d, want)
			}
		default:
			d := digest(s.Outcome)
			if prev, ok := c.seen[key]; ok && prev != d {
				problem = fmt.Sprintf("digest %s differs from an earlier pass's %s", d, prev)
			}
			c.seen[key] = d
		}
		if problem != "" {
			c.failed++
			fmt.Fprintf(c.log, "perfbench: FAIL %s seed %d: %s\n", key, seed, problem)
		}
	}
}

// updateDigests runs one pass of w at defaultSeed and merges its digests
// into digestFile (json sorts the keys, so the file diffs cleanly).
func updateDigests(w workload) error {
	table := map[string]string{}
	if err := json.Unmarshal(digestJSON, &table); err != nil {
		return fmt.Errorf("%s: %w", digestFile, err)
	}
	p := w.runPass(nil, defaultSeed)
	for _, s := range p.Sims {
		if s.Err != nil || !s.Outcome.Verified {
			return fmt.Errorf("%s did not verify: %v", s.Key, s.Err)
		}
		table[digestKey(s.Key, w.Scale)] = digest(s.Outcome)
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
