package cgra

import "fmt"

// FabricConfig describes the physical reconfigurable array in a PE:
// a Rows × Cols grid of integer functional units surrounded by switches,
// plus a few dedicated double-precision FMA units (Sec. 3, Sec. 6).
type FabricConfig struct {
	Rows int // functional-unit rows (16 in the paper)
	Cols int // functional-unit columns (5 in the paper)
	FMAs int // dedicated FMA units distributed across the fabric (4)

	// ConfigBytesPerUnit is the configuration-cell footprint of one
	// functional unit plus its share of switch configuration. The paper's
	// 16×5 fabric needs "about 360 bytes"; 360/80 = 4.5 B/unit.
	ConfigBytesPerUnit float64
	// ActivationCycles is the dead time to flip the double-buffered cells'
	// multiplexer (2 cycles).
	ActivationCycles uint64
}

// DefaultFabric returns the paper's 16×5 fabric with 4 FMA units.
func DefaultFabric() FabricConfig {
	return FabricConfig{
		Rows: 16, Cols: 5, FMAs: 4,
		ConfigBytesPerUnit: 4.5,
		ActivationCycles:   2,
	}
}

// Units returns the number of integer functional units.
func (f FabricConfig) Units() int { return f.Rows * f.Cols }

// FullConfigBytes returns the size of a whole-fabric configuration.
func (f FabricConfig) FullConfigBytes() int {
	return int(float64(f.Units())*f.ConfigBytesPerUnit + 0.5)
}

// Mapping is the result of placing a DFG onto a fabric. It stands in for the
// paper's configuration bitstream: the simulator uses its aggregate
// properties (configuration size, pipeline depth, replication) and never
// encodes per-switch routing bits.
type Mapping struct {
	DFG         *DFG
	Replicas    int    // SIMD replication factor (Sec. 5.6)
	UnitsUsed   int    // integer units used by all replicas
	Depth       int    // pipeline depth in cycles
	ConfigBytes int    // bytes of configuration data to load
	ConfigAddr  uint64 // set by the system when it reserves the configuration in memory
}

// Place sizes g's mapping onto fabric. It fails when even a single copy
// does not fit. It counts g's integer and FMA ops against the fabric's
// units; when replicate is true it picks the largest power-of-two replica
// count that those units and the memory ports allow. The mapping charges
// the full-fabric configuration size, and its depth is g's longest path.
//
// No op gets a grid position and no route is checked, so routing distance
// never adds to the depth. Stages are small by construction, because the
// program is split at every long-latency load.
func Place(g *DFG, fabric FabricConfig, replicate bool) (*Mapping, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ops := g.OpCount()
	fmas := g.FMACount()
	ints := ops - fmas
	if ints > fabric.Units() {
		return nil, fmt.Errorf("cgra: stage %s needs %d integer units, fabric has %d; split the stage",
			g.Name, ints, fabric.Units())
	}
	if fmas > fabric.FMAs {
		return nil, fmt.Errorf("cgra: stage %s needs %d FMA units, fabric has %d", g.Name, fmas, fabric.FMAs)
	}
	replicas := 1
	if replicate {
		replicas = fabric.Units()
		if ints > 0 {
			replicas = fabric.Units() / ints
		}
		if fmas > 0 && fabric.FMAs/fmas < replicas {
			replicas = fabric.FMAs / fmas
		}
		// Memory ports bound replication: each PE has one cache port, so a
		// datapath with coupled memory ops cannot replicate past the number
		// of ports without serializing; we allow up to 4 outstanding
		// accesses per cycle to the (banked) L1, as DySER-like designs do.
		if m := g.MemOps(); m > 0 {
			if maxByMem := 4 / m; maxByMem < replicas {
				replicas = maxByMem
			}
		}
		if replicas < 1 {
			replicas = 1
		}
		// Keep replication to powers of two: lockstep datapaths share
		// dequeue grouping logic, which the RTL implements for 1/2/4/8/16.
		p := 1
		for p*2 <= replicas {
			p *= 2
		}
		replicas = p
	}
	unitsUsed := ints * replicas
	if unitsUsed > fabric.Units() {
		unitsUsed = fabric.Units()
	}
	// Configuration data covers the whole fabric (unused units still need
	// their nop/switch bits), so config size is the full-fabric size.
	cfgBytes := fabric.FullConfigBytes()
	return &Mapping{
		DFG:         g,
		Replicas:    replicas,
		UnitsUsed:   unitsUsed,
		Depth:       g.Depth(),
		ConfigBytes: cfgBytes,
	}, nil
}
