package btree_test

import (
	"reflect"
	"testing"

	"fifer/internal/apps/silo"
	"fifer/internal/btree"
	"fifer/internal/mem"
)

// TestBuildMatchesLegacySilo pins Build's simulated-memory image: on Silo's
// datasets the backing-store words, root address and shape must equal the
// original builder's.
func TestBuildMatchesLegacySilo(t *testing.T) {
	scales := []int{0, 1}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for seed := uint64(1); seed <= 3; seed++ {
			ds := silo.GenerateDataset(scale, seed)
			size := (len(ds.Keys)/btree.Fanout + 2) * 2 * btree.NodeBytes
			gotMem, wantMem := mem.NewBacking(size), mem.NewBacking(size)
			recs, err := btree.Sort(ds.Keys, ds.Values)
			if err != nil {
				t.Fatal(err)
			}
			got := btree.Build(gotMem, recs)
			want, err := btree.LegacyBuild(wantMem, ds.Keys, ds.Values)
			if err != nil {
				t.Fatal(err)
			}
			if got.RootAddr != want.RootAddr || got.Height() != want.Height() || got.NumKeys() != want.NumKeys() {
				t.Fatalf("scale %d seed %d: root %#x height %d keys %d, want %#x %d %d", scale, seed,
					got.RootAddr, got.Height(), got.NumKeys(), want.RootAddr, want.Height(), want.NumKeys())
			}
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Fatalf("scale %d seed %d: backing store differs from the legacy builder", scale, seed)
			}
		}
	}
}
