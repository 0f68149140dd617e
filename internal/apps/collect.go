package apps

import (
	"fifer/internal/core"
	"fifer/internal/energy"
	"fifer/internal/ooo"
)

// collectPipeCounts gathers the energy-model event counts from a completed
// CGRA-system run.
func collectPipeCounts(sys *core.System, res core.Result) energy.Counts {
	c := energy.Counts{
		Cycles:   res.Cycles,
		PEs:      sys.Cfg.PEs,
		LLCBytes: sys.Cfg.Hier.LLCBytes,
	}
	for _, pe := range sys.PEs {
		for _, st := range pe.Stages() {
			if st.Mapping != nil {
				ops := uint64(st.Mapping.DFG.OpCount() - st.Mapping.DFG.FMACount())
				c.FabricOps += st.Firings * ops
				c.FMAOps += st.Firings * uint64(st.Mapping.DFG.FMACount())
			} else {
				c.FabricOps += st.Firings * 8
			}
		}
		for _, q := range pe.QMem.Queues() {
			c.QueueTokens += q.Enqueued + q.Dequeued
		}
		for _, d := range pe.DRMs {
			c.DRMAccesses += d.Accesses
			c.QueueTokens += d.In().Enqueued + d.In().Dequeued
		}
		c.ConfigBytes += pe.Reconfigs * uint64(sys.Cfg.Fabric.FullConfigBytes())
	}
	for _, l1 := range sys.Hier.L1s {
		c.L1Accesses += l1.Accesses
	}
	c.LLCAccesses = sys.Hier.LLC.Accesses
	c.MemLines = sys.Hier.Mem.LinesXfer
	return c
}

// LLCDivisor returns the factor by which both systems' last-level caches
// are shrunk at a given workload scale. The paper's inputs are 20-60x
// larger than our synthetic stand-ins; with a full-size LLC the scaled
// inputs would fit in cache and the OOO baselines would see none of the
// misses that dominate the paper's irregular workloads. Shrinking the LLC
// proportionally preserves the working-set-to-cache ratio (DESIGN.md §5).
func LLCDivisor(scale int) int {
	switch scale {
	case 0:
		return 16
	case 1:
		return 8
	default:
		return 1
	}
}

// collectOOOCounts gathers energy-model event counts from an OOO machine.
func collectOOOCounts(m *ooo.Machine) energy.Counts {
	c := energy.Counts{
		Cycles:   m.Cycles(),
		Cores:    len(m.Cores),
		LLCBytes: m.Hier.Config.LLCBytes,
	}
	for _, core := range m.Cores {
		c.Instrs += core.Instrs
	}
	for _, l1 := range m.Hier.L1s {
		c.L1Accesses += l1.Accesses
	}
	for _, l2 := range m.Hier.L2s {
		c.L2Accesses += l2.Accesses
	}
	c.LLCAccesses = m.Hier.LLC.Accesses
	c.MemLines = m.Hier.Mem.LinesXfer
	return c
}
