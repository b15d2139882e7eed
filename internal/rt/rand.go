package rt

// golden is 2^64 divided by the golden ratio, splitmix64's increment.
const golden = 0x9E3779B97F4A7C15

// SplitMix64 is one splitmix64 step from state x: add the increment,
// then the full-avalanche finalizer, so sequential inputs spread
// uniformly over all 64 bits.
func SplitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Mix64 derives a nonzero word from (seed, stream): SplitMix64 of the
// stream's own state, so nearby pairs diverge immediately. It seeds
// per-thread PCG streams.
func Mix64(seed, stream uint64) uint64 {
	if x := SplitMix64(seed + stream*golden); x != 0 {
		return x
	}
	return 1
}

// PCG is a small, fast, deterministic 64-bit generator: a 64-bit LCG
// step with a murmur3-style output mix. Not for anything adversarial.
type PCG struct{ s uint64 }

// NewPCG starts a generator at state seed.
func NewPCG(seed uint64) PCG { return PCG{seed} }

// Next advances the generator and returns its next output.
func (r *PCG) Next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	x := r.s
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
