package mem

import "fmt"

// HierarchyConfig captures the Table 2 memory-system parameters.
type HierarchyConfig struct {
	L1Bytes    int    // per-PE (or per-core) L1 size
	L1Ways     int    //
	L1Latency  uint64 //
	L2Bytes    int    // per-core L2 (OOO systems only; 0 disables the level)
	L2Ways     int    //
	L2Latency  uint64 //
	LLCBytes   int    // total shared LLC size
	LLCWays    int    //
	LLCLatency uint64 //
	MemLatency uint64 // main-memory latency in cycles
	MemBW      int    // main-memory bandwidth in bytes per cycle

	Clients int // number of PEs or cores, each with a private L1 (and L2)
}

// DefaultPEHierarchy returns the CGRA systems' memory parameters: 16 PEs,
// 32 KB 8-way 4-cycle L1s, 512 KB/PE 16-way 40-cycle shared LLC, 120-cycle
// 256 GB/s HBM (128 B/cycle at 2 GHz).
func DefaultPEHierarchy(pes int) HierarchyConfig {
	return HierarchyConfig{
		L1Bytes: 32 << 10, L1Ways: 8, L1Latency: 4,
		LLCBytes: pes * (512 << 10), LLCWays: 16, LLCLatency: 40,
		MemLatency: 120, MemBW: 128,
		Clients: pes,
	}
}

// DefaultCoreHierarchy returns the OOO systems' memory parameters: Skylake-
// like cores with 32 KB L1, 256 KB 8-way 12-cycle L2, and 2 MB LLC per core.
func DefaultCoreHierarchy(cores int) HierarchyConfig {
	return HierarchyConfig{
		L1Bytes: 32 << 10, L1Ways: 8, L1Latency: 4,
		L2Bytes: 256 << 10, L2Ways: 8, L2Latency: 12,
		LLCBytes: cores * (2 << 20), LLCWays: 16, LLCLatency: 40,
		MemLatency: 120, MemBW: 128,
		Clients: cores,
	}
}

// Hierarchy instantiates the shared portion (LLC + HBM) once and a private
// L1 (and optional L2) per client.
type Hierarchy struct {
	Config HierarchyConfig
	L1s    []*Level
	L2s    []*Level // nil when the config has no L2
	LLC    *Level
	Mem    *HBM
}

// NewHierarchy builds the cache hierarchy described by cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{Config: cfg}
	h.Mem = NewHBM(cfg.MemLatency, cfg.MemBW)
	h.LLC = NewLevel("llc", cfg.LLCBytes, cfg.LLCWays, cfg.LLCLatency, h.Mem)
	for i := 0; i < cfg.Clients; i++ {
		parent := lower(h.LLC)
		if cfg.L2Bytes > 0 {
			l2 := NewLevel("l2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Latency, h.LLC)
			h.L2s = append(h.L2s, l2)
			parent = l2
		}
		h.L1s = append(h.L1s, NewLevel("l1", cfg.L1Bytes, cfg.L1Ways, cfg.L1Latency, parent))
	}
	return h
}

// Port is one client's view of the hierarchy: its private L1 plus the
// functional backing store.
type Port struct {
	l1      *Level
	backing *Backing
}

// Port returns client i's memory port over the given backing store. It
// panics on a store larger than MaxBackingBytes, whose lines the caches'
// tags could not tell apart.
func (h *Hierarchy) Port(i int, backing *Backing) *Port {
	if uint64(backing.Size()) > MaxBackingBytes {
		panic(fmt.Sprintf("mem: %d-byte backing store exceeds the caches' %d-byte limit",
			backing.Size(), uint64(MaxBackingBytes)))
	}
	return &Port{l1: h.L1s[i], backing: backing}
}

// L1 exposes the port's private first-level cache.
func (p *Port) L1() *Level { return p.l1 }

// Load performs a functional+timing load: it returns the loaded word and the
// cycle at which it is available given the request departs at cycle now.
func (p *Port) Load(now uint64, a Addr) (v uint64, ready uint64) {
	return p.backing.Load(a), p.l1.Access(now, a, false)
}

// Store performs a functional+timing store.
func (p *Port) Store(now uint64, a Addr, v uint64) (ready uint64) {
	p.backing.Store(a, v)
	return p.l1.Access(now, a, true)
}

// LoadTiming performs a timing-only access (used for configuration fetches,
// whose "data" is not program-visible).
func (p *Port) LoadTiming(now uint64, a Addr) (ready uint64) {
	return p.l1.Access(now, a, false)
}

// Backing returns the functional store behind the port.
func (p *Port) Backing() *Backing { return p.backing }
