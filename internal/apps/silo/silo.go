// Package silo is the in-memory-database benchmark (Sec. 7.2, Fig. 12b):
// YCSB-C point lookups against a B+tree index. The pipeline contains a
// cycle — internal nodes re-enqueue the lookup for another dereference —
// which Fifer permits because each internal node enqueues at most one
// additional node. Lookups are striped across PEs; the pipeline overlaps
// many lookups to keep multiple memory accesses in flight.
//
// Stages per replica (four, as in Fig. 12b):
//
//	Q0 query:    stream keys, inject (key, root) into the traversal loop,
//	             throttled by an in-flight-lookup credit counter so the
//	             cyclic queue can always absorb re-enqueues
//	S1 lookup:   issue the node-header dereference to the node DRM
//	S2 traverse: internal nodes — scan separator keys, follow the child
//	             pointer back into the loop; leaves forward to S3
//	S3 leaf:     scan the leaf, fetch the value, store the result
//
// Per the paper, Silo's queue memory is scaled to a quarter of the default
// (16 KB → 4 KB) to better fit the LLC.
package silo

import (
	"fifer/internal/apps"
	"fifer/internal/btree"
	"fifer/internal/core"
	"fifer/internal/sim"
	"fifer/internal/ycsb"
)

// Name is the benchmark's reporting name.
const Name = "Silo"

// Workload sizes per scale (tree records / total lookups).
var scales = []struct{ records, lookups int }{
	{20_000, 2_000},
	{200_000, 8_000},
	{1_000_000, 32_000},
}

// Dataset is a generated Silo workload.
type Dataset struct {
	Keys    []uint64 // loaded record keys (index i ↔ key Keys[i])
	Values  []uint64
	Lookups []uint64 // YCSB-C request keys
}

// GenerateDataset builds the B+tree contents and the YCSB-C request stream.
func GenerateDataset(scale int, seed uint64) Dataset {
	sc := scales[scale]
	d := Dataset{
		Keys:   make([]uint64, sc.records),
		Values: make([]uint64, sc.records),
	}
	r := sim.NewRand(seed ^ 0x51107)
	for i := range d.Keys {
		d.Keys[i] = ycsb.DefaultKeyOf(uint64(i))
		d.Values[i] = r.Uint64()
	}
	w := ycsb.GenerateC(sc.records, sc.lookups, seed^0xc0ffee, ycsb.DefaultKeyOf)
	d.Lookups = w.Keys
	return d
}

// RunOn executes Silo on ds, the YCSB-C dataset GenerateDataset builds, on
// the chosen system. It only reads ds, so runs may share it, and derives
// ds's sorted records and the reference output through derive. seed is
// unused.
func RunOn(kind apps.SystemKind, ds Dataset, derive apps.Derive, scale int, _ uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	recs := apps.Derived(derive, "silo records", func() btree.Records { return sortRecords(ds) })
	return apps.Run(kind, scale, merged, override, derive, app(ds, recs))
}

// sortRecords returns ds's records ordered by key. GenerateDataset draws
// distinct keys, so Sort cannot fail on a generated dataset.
func sortRecords(ds Dataset) btree.Records {
	recs, err := btree.Sort(ds.Keys, ds.Values)
	if err != nil {
		panic(err)
	}
	return recs
}

// refLookups computes the expected lookup results: each lookup's value in
// recs, or MissingMark for a key no record holds.
func refLookups(recs btree.Records, lookups []uint64) []uint64 {
	out := make([]uint64, len(lookups))
	for i, k := range lookups {
		v, ok := recs.Lookup(k)
		if !ok {
			v = MissingMark
		}
		out[i] = v
	}
	return out
}

// MissingMark is stored as the result of a lookup that found no record.
const MissingMark = ^uint64(0)
