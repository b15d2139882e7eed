package obs

import "sync/atomic"

const (
	// counterStripes is the number of striped cells per Counter;
	// writers pick a cell by tid so concurrent threads never contend on
	// one cache line. Power of two.
	counterStripes = 16

	// cacheLine matches the padding granularity used by the allocator
	// (128 covers adjacent-line prefetching).
	cacheLine = 128
)

type counterCell struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing shard-striped counter. All
// methods are nil-safe: calling them on a nil *Counter is a no-op, which
// is how uninstrumented hot paths stay free.
type Counter struct {
	cells [counterStripes]counterCell
}

// Add increments the counter by n, striping by the caller's tid.
func (c *Counter) Add(tid int, n uint64) {
	if c == nil {
		return
	}
	c.cells[uint(tid)&(counterStripes-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc(tid int) { c.Add(tid, 1) }

// Value sums the stripes. Exact at quiescence, a consistent-enough
// snapshot under load (each stripe is read atomically).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous value with a high-water mark. Set and Add
// maintain Max with a CAS loop; like Counter, a nil *Gauge no-ops.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(d))
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the largest value ever Set/reached.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Hist is a concurrent log-bucketed histogram (geometry in buckets.go)
// with atomic cells, so any number of goroutines may Observe into one
// Hist while /metrics scrapes it. Nil-safe like the other handles.
type Hist struct {
	counts [HistBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one nanosecond observation.
func (h *Hist) Observe(ns uint64) {
	if h == nil {
		return
	}
	h.counts[HistBucketOf(ns)].Add(1)
	h.total.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// HistSummary is the JSON-ready digest of a Hist, in microseconds (the
// resolution kvload's summary line and the /metrics JSON report).
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summary digests the histogram. It walks the buckets once per requested
// quantile over a point-in-time copy of the counts, so a concurrent
// Observe can skew a quantile by at most one bucket.
func (h *Hist) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	var counts [HistBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	max := h.max.Load()
	q := func(p float64) float64 {
		if total == 0 {
			return 0
		}
		rank := uint64(p * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > rank {
				if i == HistBucketOf(max) {
					return float64(max) / 1e3
				}
				return float64(HistBucketMid(i)) / 1e3
			}
		}
		return float64(max) / 1e3
	}
	out := HistSummary{Count: total, MaxUs: float64(max) / 1e3}
	if total > 0 {
		out.MeanUs = float64(h.sum.Load()) / float64(total) / 1e3
		out.P50Us = q(0.50)
		out.P90Us = q(0.90)
		out.P99Us = q(0.99)
		out.P999Us = q(0.999)
	}
	return out
}
