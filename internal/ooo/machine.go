package ooo

import "fifer/internal/mem"

// Machine is a 1- or 4-core OOO system sharing an LLC and main memory, the
// paper's "Serial OoO" and "OoO baseline 4-core" comparison systems.
type Machine struct {
	Cfg     Config
	Backing *mem.Backing
	Hier    *mem.Hierarchy
	Cores   []*Core
}

// NewMachine builds an OOO machine with n cores over the Table 2
// core-memory hierarchy and a backing store of backingBytes, with the shared
// LLC shrunk by llcDiv to keep working-set-to-cache ratios faithful on
// scaled-down inputs (1 keeps the full LLC).
func NewMachine(n, backingBytes, llcDiv int) *Machine {
	if llcDiv < 1 {
		llcDiv = 1
	}
	h := mem.DefaultCoreHierarchy(n)
	h.LLCBytes /= llcDiv
	m := &Machine{
		Cfg:     DefaultConfig(),
		Backing: mem.NewBacking(backingBytes),
		Hier:    mem.NewHierarchy(h),
	}
	for i := 0; i < n; i++ {
		m.Cores = append(m.Cores, NewCore(m.Cfg, m.Hier.Port(i, m.Backing)))
	}
	return m
}

// Barrier synchronizes all cores to the maximum cycle (end of a parallel
// round) and returns that cycle.
func (m *Machine) Barrier() uint64 {
	var max uint64
	for _, c := range m.Cores {
		if c.Cycle() > max {
			max = c.Cycle()
		}
	}
	for _, c := range m.Cores {
		c.SetCycle(max)
	}
	return max
}

// Cycles returns the machine's completion time: the max core cycle.
func (m *Machine) Cycles() uint64 {
	var max uint64
	for _, c := range m.Cores {
		if c.Cycle() > max {
			max = c.Cycle()
		}
	}
	return max
}
