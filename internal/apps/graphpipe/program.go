package graphpipe

import (
	"fmt"

	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/queue"
)

// Round control: the control core's role (Sec. 7.1). Rounds are level-
// synchronous — the system quiesces between BFS levels — and the control
// core seeds the next round by swapping fringes and pushing the new scan
// ranges into each replica's fringe DRM.

// seed places vertex v into its owner's current fringe with initial label
// init, and starts the scan.
func (p *Pipeline) seed(v int, init uint64) {
	b := p.Sys.Backing
	b.Store(p.labelAddr(uint64(v)), init)
	rep := p.reps[p.ownerOf(uint64(v))]
	b.Store(rep.curFringe, uint64(v))
	p.pushScan(rep, rep.curFringe, 1)
}

// pushScan hands a fringe range to the replica's scanning DRM.
func (p *Pipeline) pushScan(rep *replica, base mem.Addr, count int) {
	in := rep.drmFringe.In()
	if !in.Enq(queue.Data(uint64(base))) || !in.Enq(queue.Data(uint64(base)+uint64(count*mem.WordBytes))) {
		panic(fmt.Sprintf("replica %d: fringe DRM input overflow", rep.id))
	}
}

// startFirstSearch seeds the initial work before the system runs.
func (p *Pipeline) startFirstSearch() {
	p.started = true
	switch p.Opts.Mode {
	case ModeBFS, ModeRadii:
		if len(p.Opts.Sources) == 0 {
			panic("graphpipe: no sources")
		}
		p.srcIdx = 0
		p.seed(p.Opts.Sources[0], 0)
		p.curLabel = 1
	case ModeCC:
		p.srcIdx = 0
		if !p.nextComponent() {
			panic("graphpipe: empty graph for CC")
		}
	}
}

// Quiesced implements core.Program: called whenever all queues drain and
// all PEs go idle. It advances to the next BFS level, the next search, or
// reports completion.
func (p *Pipeline) Quiesced(sys *core.System) bool {
	any := false
	for _, rep := range p.reps {
		if rep.nextCnt > 0 {
			any = true
			break
		}
	}
	if any {
		if p.Opts.Mode != ModeCC {
			p.curLabel++ // next BFS level
		}
		for _, rep := range p.reps {
			rep.curFringe, rep.nextFringe = rep.nextFringe, rep.curFringe
			if rep.nextCnt > 0 {
				p.pushScan(rep, rep.curFringe, rep.nextCnt)
			}
			rep.nextCnt = 0
		}
		return true
	}
	// Current search exhausted.
	switch p.Opts.Mode {
	case ModeBFS:
		return false
	case ModeRadii:
		p.srcIdx++
		if p.srcIdx >= len(p.Opts.Sources) {
			return false
		}
		// Reset per-search distances (the control core reuses the label
		// array across searches; radii persist in their own array).
		b := p.Sys.Backing
		for v := 0; v < p.G.NumVertices(); v++ {
			b.Store(p.labelAddr(uint64(v)), graph.Unset)
		}
		p.seed(p.Opts.Sources[p.srcIdx], 0)
		p.curLabel = 1
		return true
	case ModeCC:
		return p.nextComponent()
	}
	return false
}

// nextComponent finds the next unvisited seed for CC; zero-degree vertices
// are labeled directly by the control core (they are their own components
// and need no traversal). It returns false when every vertex is labeled.
func (p *Pipeline) nextComponent() bool {
	b := p.Sys.Backing
	for ; p.srcIdx < p.G.NumVertices(); p.srcIdx++ {
		v := p.srcIdx
		if b.Load(p.labelAddr(uint64(v))) != graph.Unset {
			continue
		}
		if p.G.Degree(v) == 0 {
			b.Store(p.labelAddr(uint64(v)), uint64(v))
			continue
		}
		p.curLabel = uint64(v)
		p.seed(v, uint64(v))
		p.srcIdx++
		return true
	}
	return false
}

// Labels copies the label array (distances or component ids) out of
// simulated memory.
func (p *Pipeline) Labels() []uint64 {
	out := make([]uint64, p.G.NumVertices())
	for v := range out {
		out[v] = p.Sys.Backing.Load(p.labelAddr(uint64(v)))
	}
	return out
}

// Radii copies the radii array out of simulated memory (ModeRadii only).
func (p *Pipeline) Radii() []uint64 {
	out := make([]uint64, p.G.NumVertices())
	for v := range out {
		out[v] = p.Sys.Backing.Load(p.radiiA + mem.Addr(v*mem.WordBytes))
	}
	return out
}
