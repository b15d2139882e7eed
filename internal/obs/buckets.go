package obs

import "math/bits"

// Log-bucketed histogram layout of Hist, the repo's one latency
// histogram: kvserver's per-op latencies, the proxy's backend RTTs, the
// schemes' retire→free and scan times, and kvload's summary line all
// record into it. HistSubBits bits of sub-bucket resolution per octave
// give a bounded ~3% relative error at every magnitude while covering
// the full uint64 nanosecond range in a few KB.
const (
	// HistSubBits is the sub-bucket resolution: 2^HistSubBits buckets
	// per octave → ≤3.1% relative error.
	HistSubBits  = 5
	histSubCount = 1 << HistSubBits

	// HistBuckets is the total bucket count: one linear region below
	// 2^HistSubBits, then one region of histSubCount buckets per
	// remaining octave of a 64-bit value (the highest region index is
	// 64-HistSubBits, inclusive).
	HistBuckets = (64 - HistSubBits + 1) * histSubCount
)

// HistBucketOf maps a value (nanoseconds, by convention) to its bucket.
func HistBucketOf(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	k := bits.Len64(v)           // position of the highest set bit, > HistSubBits
	shift := k - HistSubBits - 1 // ≥ 0
	sub := (v >> uint(shift)) - histSubCount
	return (shift+1)<<HistSubBits + int(sub)
}

// HistBucketMid returns a representative (midpoint) value for bucket idx.
func HistBucketMid(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	shift := idx>>HistSubBits - 1
	sub := uint64(idx & (histSubCount - 1))
	lo := (histSubCount + sub) << uint(shift)
	return lo + (uint64(1)<<uint(shift))/2
}
