package bench

import (
	"fmt"
	"io"

	"fifer/internal/core"
	"fifer/internal/energy"
	"fifer/internal/graph"
	"fifer/internal/sparse"
	"fifer/internal/stats"
)

// PrintTable1 renders the per-PE area breakdown (Table 1).
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: implementation costs for major components of a Fifer PE (45 nm, 2 GHz)")
	tbl := stats.NewTable("item", "area (mm^2)")
	tbl.Add("Reconfigurable fabric, 16x5 func. units", fmt.Sprintf("%.2f", energy.AreaFabricMM2))
	tbl.Add("4x double-precision FMA units", fmt.Sprintf("%.2f", energy.AreaFMAMM2))
	tbl.Add("16 KB queue SRAM", fmt.Sprintf("%.3f", energy.AreaQueueSRAMMM2))
	tbl.Add("4x decoupled reference machines (DRMs)", fmt.Sprintf("%.4f", energy.AreaDRMsMM2))
	tbl.Add("32 KB data cache", fmt.Sprintf("%.2f", energy.AreaDCacheMM2))
	tbl.Add("Total area (per PE)", fmt.Sprintf("%.2f", energy.AreaPEMM2))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "\nEach PE is %.1f%% of the area of an OOO core at the same node (input: the OOO core area is derived from the paper's 4.6%%).\n",
		100*energy.AreaPEMM2/energy.AreaOOOCoreMM2)
}

// PrintTable2 renders the system configuration (Table 2).
func PrintTable2(w io.Writer) {
	cfg := core.DefaultConfig()
	fmt.Fprintln(w, "Table 2: configuration parameters of the evaluated system")
	tbl := stats.NewTable("component", "configuration")
	tbl.Add("PEs", fmt.Sprintf("%d PEs, 2 GHz, %dx%d func. unit mesh, 32 KB L1 (8-way, 4-cycle)",
		cfg.PEs, cfg.Fabric.Rows, cfg.Fabric.Cols))
	tbl.Add("Fifer", fmt.Sprintf("up to 16 queues per PE, virtualized on a %d KB buffer", cfg.QueueMemBytes>>10))
	tbl.Add("Cores", "1 or 4 cores, 2 GHz, Skylake-like: 6-wide OOO, 32 KB L1, 256 KB L2 (12-cycle)")
	tbl.Add("LLC", fmt.Sprintf("%d KB/PE or 2 MB/core, 16-way, 40-cycle latency", cfg.Hier.LLCBytes/cfg.PEs>>10))
	tbl.Add("Main mem", fmt.Sprintf("%d-cycle latency, 256 GB/s high-bandwidth memory", cfg.Hier.MemLatency))
	fmt.Fprint(w, tbl)
}

// Table3Row is one input graph's characteristics: the paper's published
// dataset stats next to the generated synthetic stand-in's.
type Table3Row struct {
	Graph, Domain, Dataset string
	PaperV, PaperE         int
	PaperDeg               float64
	GenV, GenE             int
	GenDeg                 float64
}

// Table3 generates every Table 3 input at the chosen scale and collects
// its characteristics; PrintTable3 renders the collected rows.
func Table3(opt Options) []Table3Row {
	rows := make([]Table3Row, 0, len(graph.Inputs))
	for _, in := range graph.Inputs {
		pv, pe, pd, domain := graph.PaperStats(in)
		g := graph.Generate(in, graph.Scale(opt.Scale), opt.Seed)
		rows = append(rows, Table3Row{
			Graph: string(in), Domain: domain, Dataset: graph.DatasetName(in),
			PaperV: pv, PaperE: pe, PaperDeg: pd,
			GenV: g.NumVertices(), GenE: g.NumEdges(), GenDeg: g.AvgDegree(),
		})
	}
	return rows
}

// PrintTable3 renders the input-graph characteristics (Table 3): paper
// datasets alongside the generated stand-ins at the chosen scale.
func PrintTable3(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 3: input graphs (paper dataset -> generated synthetic stand-in)")
	tbl := stats.NewTable("graph", "domain", "paper V", "paper E", "paper deg", "gen V", "gen E", "gen deg")
	for _, r := range Table3(opt) {
		tbl.Add(r.Graph, r.Domain+" ("+r.Dataset+")", r.PaperV, r.PaperE, fmt.Sprintf("%.1f", r.PaperDeg),
			r.GenV, r.GenE, fmt.Sprintf("%.1f", r.GenDeg))
	}
	fmt.Fprint(w, tbl)
}

// Table4Row is one input matrix's characteristics.
type Table4Row struct {
	Matrix, Domain string
	PaperN         int
	PaperNNZ       float64
	GenN           int
	GenNNZ         float64
}

// Table4 generates every Table 4 matrix and collects its characteristics;
// PrintTable4 renders the collected rows.
func Table4(opt Options) []Table4Row {
	rows := make([]Table4Row, 0, len(sparse.Inputs))
	for _, in := range sparse.Inputs {
		pn, pd, domain := sparse.PaperStats(in)
		m := sparse.Generate(in, opt.Scale, opt.Seed)
		rows = append(rows, Table4Row{
			Matrix: string(in), Domain: domain, PaperN: pn, PaperNNZ: pd,
			GenN: m.NumRows, GenNNZ: m.AvgNNZPerRow(),
		})
	}
	return rows
}

// PrintTable4 renders the input-matrix characteristics (Table 4).
func PrintTable4(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 4: input matrices (paper dataset -> generated synthetic stand-in)")
	tbl := stats.NewTable("matrix", "domain", "paper n", "paper nnz/row", "gen n", "gen nnz/row")
	for _, r := range Table4(opt) {
		tbl.Add(r.Matrix, r.Domain, r.PaperN, fmt.Sprintf("%.1f", r.PaperNNZ),
			r.GenN, fmt.Sprintf("%.1f", r.GenNNZ))
	}
	fmt.Fprint(w, tbl)
}
