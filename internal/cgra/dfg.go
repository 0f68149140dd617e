// Package cgra models the coarse-grain reconfigurable array described in
// Sec. 3 and Fig. 3 of the paper: a grid of word-width functional units
// connected by switches, configured by per-unit configuration cells. The
// package provides the dataflow-graph (DFG) representation that stages are
// lowered to, a placer that maps DFGs onto the grid and sizes their
// configurations (what the paper's bitstream generation step, Fig. 5, feeds
// the timing model), SIMD-style replication of small datapaths
// (Sec. 5.6), and an interpreter used to validate mappings.
package cgra

import "fmt"

// OpKind enumerates the operations a functional unit can be configured to
// perform. They mirror the pseudo-assembly of Fig. 6 plus the elementary ALU
// operations listed in Sec. 3.
type OpKind int

const (
	OpNop OpKind = iota
	OpConst
	OpAdd
	OpSub
	OpMul
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpDiv   // unsigned divide (iterative divider unit; b==0 yields 0)
	OpCmpLT // 1 if a < b (unsigned)
	OpCmpEQ
	OpSelect // c != 0 ? a : b
	OpLEA    // base + index<<scale (scale in Imm)
	OpLoad   // coupled load from cache
	OpStore  // coupled store to cache
	OpDeq    // dequeue from input queue Imm
	OpEnq    // enqueue to output queue Imm
	OpFMA    // double-precision fused multiply-add (dedicated units)
)

var opNames = map[OpKind]string{
	OpNop: "nop", OpConst: "const", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpCmpLT: "cmplt", OpCmpEQ: "cmpeq", OpSelect: "select", OpLEA: "lea",
	OpLoad: "ld", OpStore: "st", OpDeq: "deq", OpEnq: "enq", OpFMA: "fma",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsFMA reports whether the op must be placed on one of the PE's dedicated
// floating-point units rather than an integer ALU.
func (k OpKind) IsFMA() bool { return k == OpFMA }

// IsMemory reports whether the op talks to the cache.
func (k OpKind) IsMemory() bool { return k == OpLoad || k == OpStore }

// NodeID names a node within its DFG.
type NodeID int

// Node is one operation in a dataflow graph.
type Node struct {
	ID   NodeID
	Kind OpKind
	Args []NodeID // operand nodes, in order
	Imm  uint64   // immediate: constant value, LEA scale, or queue index
}

// DFG is a stage's dataflow graph: a small feed-forward network of
// operations with queue endpoints. The graph must be acyclic except that
// loop-carried state is expressed through registers, which the timing model
// folds into pipeline depth.
type DFG struct {
	Name  string
	Nodes []Node
}

// NewDFG returns an empty dataflow graph with the given name.
func NewDFG(name string) *DFG { return &DFG{Name: name} }

// Add appends a node and returns its ID.
func (g *DFG) Add(kind OpKind, imm uint64, args ...NodeID) NodeID {
	id := NodeID(len(g.Nodes))
	for _, a := range args {
		if int(a) < 0 || int(a) >= len(g.Nodes) {
			panic(fmt.Sprintf("dfg %s: node %d references undefined arg %d", g.Name, id, a))
		}
	}
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Args: append([]NodeID(nil), args...), Imm: imm})
	return id
}

// Convenience constructors for common nodes.

// Const adds a constant node.
func (g *DFG) Const(v uint64) NodeID { return g.Add(OpConst, v) }

// Deq adds a dequeue node reading input queue q.
func (g *DFG) Deq(q int) NodeID { return g.Add(OpDeq, uint64(q)) }

// Enq adds an enqueue node writing src to output queue q.
func (g *DFG) Enq(q int, src NodeID) NodeID { return g.Add(OpEnq, uint64(q), src) }

// OpCount returns the number of non-nop operations (functional units used by
// one copy of the datapath).
func (g *DFG) OpCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind != OpNop {
			n++
		}
	}
	return n
}

// FMACount returns the number of FMA nodes.
func (g *DFG) FMACount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind.IsFMA() {
			n++
		}
	}
	return n
}

// MemOps returns the number of coupled memory operations.
func (g *DFG) MemOps() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind.IsMemory() {
			n++
		}
	}
	return n
}

// Depth returns the length (in functional-unit hops) of the longest path
// through the graph — the configuration's pipeline latency (Sec. 3: "the
// longest input-output path through functional units sets the latency").
func (g *DFG) Depth() int {
	depth := make([]int, len(g.Nodes))
	max := 0
	for i, nd := range g.Nodes { // nodes are in topological order by construction
		d := 1
		for _, a := range nd.Args {
			if depth[a]+1 > d {
				d = depth[a] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}

// Validate checks structural invariants: topological argument order and
// queue endpoints present.
func (g *DFG) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("dfg %s: empty", g.Name)
	}
	for i, nd := range g.Nodes {
		if nd.ID != NodeID(i) {
			return fmt.Errorf("dfg %s: node %d has mismatched id %d", g.Name, i, nd.ID)
		}
		for _, a := range nd.Args {
			if int(a) >= i {
				return fmt.Errorf("dfg %s: node %d uses arg %d that does not precede it", g.Name, i, a)
			}
		}
	}
	return nil
}
