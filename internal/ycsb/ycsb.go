// Package ycsb generates YCSB workloads. The Silo benchmark uses YCSB-C:
// 100% reads with a Zipfian key-popularity distribution over the loaded
// records (Sec. 7.2).
package ycsb

import (
	"math"

	"fifer/internal/sim"
)

// Zipfian samples integers in [0, n) with the standard YCSB Zipfian
// distribution (theta = 0.99 by default), using the Gray et al. rejection-
// free inverse-CDF method YCSB itself uses.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	r     *sim.Rand
}

// NewZipfian returns a Zipfian sampler over [0, n) with parameter theta.
func NewZipfian(n uint64, theta float64, r *sim.Rand) *Zipfian {
	z := &Zipfian{n: n, theta: theta, r: r}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zetaTable holds zeta(n, 0.99) for Silo's record counts as exact float64
// bits, the values the plain sum in zeta returns, so a sampler over a
// million records skips a million math.Pow calls. YCSB's ScrambledZipfian
// precomputes its ZETAN the same way.
var zetaTable = [...]struct{ n, bits uint64 }{
	{20_000, 0x4025f9576d34c484},
	{200_000, 0x402b1e15e640d974},
	{1_000_000, 0x402ec8a087a85a53},
}

// zeta returns the generalized harmonic number sum_{i=1..n} 1/i^theta,
// summed in increasing i. Each NewZipfian computes it once, unless
// zetaTable holds it; n in this repo stays ≤ a few million.
func zeta(n uint64, theta float64) float64 {
	if theta == 0.99 {
		for _, e := range zetaTable {
			if e.n == n {
				return math.Float64frombits(e.bits)
			}
		}
	}
	return zetaSum(n, theta)
}

// zetaSum is zeta's plain sum, the definition zetaTable's entries must equal.
func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next sample. Item 0 is the most popular.
func (z *Zipfian) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// WorkloadC is a YCSB-C request stream: read-only key lookups.
type WorkloadC struct {
	Keys []uint64 // the keys to look up, in issue order
}

// GenerateC builds a YCSB-C workload of nops lookups over a keyspace of
// nkeys loaded records. keyOf maps a record index to its key (records are
// shuffled across the key space, as YCSB's hashed insert order does).
func GenerateC(nkeys, nops int, seed uint64, keyOf func(i uint64) uint64) WorkloadC {
	r := sim.NewRand(seed)
	z := NewZipfian(uint64(nkeys), 0.99, r)
	w := WorkloadC{Keys: make([]uint64, nops)}
	for i := range w.Keys {
		idx := z.Next()
		if idx >= uint64(nkeys) {
			idx = uint64(nkeys) - 1
		}
		w.Keys[i] = keyOf(idx)
	}
	return w
}

// DefaultKeyOf spreads record indices over the key space with a Fibonacci
// hash (a bijection, so bulk-loaded keys stay unique) so that popular
// records are not physically adjacent in the B+tree.
func DefaultKeyOf(i uint64) uint64 {
	return i * 0x9e3779b97f4a7c15
}
