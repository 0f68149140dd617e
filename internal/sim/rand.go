// Package sim provides the simulator's deterministic random-number
// generator, shared by every input generator and fault plan.
//
// Everything in this package (and in the packages built on it) is
// deterministic: the same seed and configuration always produce the same
// simulated cycle counts and the same functional results.
package sim

// Rand is a small, fast, deterministic xorshift64* generator.
// It is used everywhere randomness is needed (input generation, Zipfian
// sampling) so that simulations are reproducible without depending on
// math/rand's global state.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
