// Package graphpipe implements the pipeline-parallel graph-traversal engine
// shared by the BFS, CC, and Radii benchmarks: the four-stage decoupled
// pipeline of Fig. 2(a)/Fig. 10 (process current fringe → enumerate
// neighbors → fetch distances → update data & next fringe), replicated
// across PEs with vertex sharding, plus the merged two-stage variant of
// Sec. 8.4. The three benchmarks differ only in what the update stage
// writes and in how rounds are seeded, which Mode selects.
package graphpipe

import (
	"fmt"

	"fifer/internal/apps"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/mem"
	"fifer/internal/stage"
)

// Mode selects the benchmark semantics layered on the traversal engine.
type Mode int

const (
	// ModeBFS: label = distance from a single source.
	ModeBFS Mode = iota
	// ModeCC: label = component id; successive searches from ascending
	// unvisited seeds.
	ModeCC
	// ModeRadii: repeated BFS from sampled sources; the update stage also
	// maintains radii[v] = max distance seen.
	ModeRadii
)

func (m Mode) String() string {
	switch m {
	case ModeBFS:
		return "bfs"
	case ModeCC:
		return "cc"
	case ModeRadii:
		return "radii"
	}
	return "?"
}

// Options configures a pipeline build.
type Options struct {
	Mode    Mode
	Merged  bool  // two-stage merged variant (Sec. 8.4) instead of four-stage
	Sources []int // BFS: one source; Radii: the sampled sources; CC: ignored
}

// Stages returns the per-replica stage count of the chosen variant.
func (o Options) Stages() int {
	if o.Merged {
		return 2
	}
	return 4
}

// Pipeline is a built graph application ready to Run on a core.System.
type Pipeline struct {
	Sys  *core.System
	G    *graph.Graph
	Opts Options

	place apps.Placement

	// Simulated-memory layout.
	offsetsA   mem.Addr
	neighborsA mem.Addr
	labelA     mem.Addr
	radiiA     mem.Addr

	reps []*replica

	// Round state (control-core registers).
	curLabel uint64 // current distance (BFS/Radii) or component id (CC)
	srcIdx   int    // next source (BFS/Radii) or next seed scan cursor (CC)
	started  bool
}

type replica struct {
	id         int
	curFringe  mem.Addr
	nextFringe mem.Addr
	fringeCap  int
	nextCnt    int // S4's next-fringe count register

	drmFringe *core.DRM // scan mode over the current fringe
	drmOff    *core.DRM // dereference offsets
	drmNgh    *core.DRM // dereference neighbors
	drmDist   *core.DRM // dereference labels (distances)

	fringeQ *apps.QueueRef // drmFringe out → S1
	offQ    *apps.QueueRef // drmOff out → S2
	nghQ    *apps.QueueRef // drmNgh out → S3
	pairQ   *apps.QueueRef // S3-internal pending neighbor ids
	distQ   *apps.QueueRef // drmDist out → S3
	updQ    *apps.QueueRef // routed neighbor ids → S4 (one producer port per replica)

	updOut []stage.Out // S3's ports into every replica's updQ

	// S2 edge-enumeration registers.
	scanActive bool
	scanE      uint64
	scanEnd    uint64
}

// label address of vertex v.
func (p *Pipeline) labelAddr(v uint64) mem.Addr {
	return p.labelA + mem.Addr(v*mem.WordBytes)
}

// Build lays out g in sys's memory and constructs the per-replica stages.
func Build(sys *core.System, g *graph.Graph, opts Options) *Pipeline {
	p := &Pipeline{Sys: sys, G: g, Opts: opts, place: apps.PlaceFor(sys.Cfg, opts.Stages())}
	b := sys.Backing

	// Graph and label arrays live in simulated memory.
	p.offsetsA = b.AllocSlice(g.Offsets)
	p.neighborsA = b.AllocSlice(g.Neighbors)
	n := g.NumVertices()
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = graph.Unset
	}
	p.labelA = b.AllocSlice(labels)
	if opts.Mode == ModeRadii {
		p.radiiA = b.AllocWords(n)
	}

	qp := apps.NewQueuePlan(sys)
	R := p.place.Replicas
	producersS3 := make([]int, R) // PE of stage carrying S3's routing for each replica
	for r := 0; r < R; r++ {
		routeStage := 2 // S3 routes in the 4-stage pipeline
		if opts.Merged {
			routeStage = 0 // Sa routes in the merged pipeline
		}
		producersS3[r] = p.place.PEOf(r, routeStage)
	}

	for r := 0; r < R; r++ {
		rep := &replica{id: r}
		// Interleaved sharding: replica r owns vertices v with v%R == r.
		rep.fringeCap = (n + R - 1) / R
		if rep.fringeCap < 1 {
			rep.fringeCap = 1
		}
		rep.curFringe = b.AllocWords(rep.fringeCap)
		rep.nextFringe = b.AllocWords(rep.fringeCap)

		if opts.Merged {
			pe0 := p.place.PEOf(r, 0)
			pe1 := p.place.PEOf(r, 1)
			rep.drmFringe = sys.PE(pe0).DRM(0)
			rep.fringeQ = qp.Request(pe0, fmt.Sprintf("r%d.fringe", r), 2, nil)
			rep.updQ = qp.Request(pe1, fmt.Sprintf("r%d.upd", r), 2, producersS3)
		} else {
			pe0 := p.place.PEOf(r, 0)
			pe1 := p.place.PEOf(r, 1)
			pe2 := p.place.PEOf(r, 2)
			pe3 := p.place.PEOf(r, 3)
			rep.drmFringe = sys.PE(pe0).DRM(0)
			rep.drmOff = sys.PE(pe0).DRM(1)
			rep.drmNgh = sys.PE(pe1).DRM(2)
			rep.drmDist = sys.PE(pe2).DRM(3)
			rep.fringeQ = qp.Request(pe0, fmt.Sprintf("r%d.fringe", r), 1, nil)
			rep.offQ = qp.Request(pe1, fmt.Sprintf("r%d.off", r), 1, []int{pe0})
			rep.nghQ = qp.Request(pe2, fmt.Sprintf("r%d.ngh", r), 2, []int{pe1})
			rep.pairQ = qp.Request(pe2, fmt.Sprintf("r%d.pair", r), 1, nil)
			rep.distQ = qp.Request(pe2, fmt.Sprintf("r%d.dist", r), 1, nil)
			rep.updQ = qp.Request(pe3, fmt.Sprintf("r%d.upd", r), 2, producersS3)
		}
		p.reps = append(p.reps, rep)
	}
	qp.Build()

	// Wire DRMs and stages now that queues exist.
	for r := 0; r < R; r++ {
		rep := p.reps[r]
		rep.drmFringe.Configure(core.DRMScan, rep.fringeQ.Local())
		if opts.Merged {
			rep.updOut = updPorts(p, rep)
			p.addMergedStages(rep)
		} else {
			rep.drmOff.Configure(core.DRMDereference, rep.offQ.Out(0))
			rep.drmNgh.Configure(core.DRMDereference, rep.nghQ.Out(0))
			rep.drmDist.Configure(core.DRMDereference, rep.distQ.Local())
			rep.updOut = updPorts(p, rep)
			p.addFullStages(rep)
		}
	}
	return p
}

// updPorts returns the routing stage's ports into every replica's update
// queue; port index within each arbiter is the sending replica's id.
func updPorts(p *Pipeline, rep *replica) []stage.Out {
	ports := make([]stage.Out, len(p.reps))
	for d, dst := range p.reps {
		ports[d] = dst.updQ.Out(rep.id)
	}
	return ports
}
