// Scan-engine microbenchmarks for `go test -bench`: the zero-allocation
// snapshot+probe retire scan, and the protection publish with and
// without elision. The end-to-end and per-layer numbers
// (reclaim.hp.scan_ns_total, reclaim.hp.protect_ns) come from benchmark/.
package reclaim

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
)

// benchHandle fabricates a plausible arena handle: non-zero generation,
// distinct index. No arena is needed — scans compare handles, they never
// dereference them.
func benchHandle(i int) arena.Handle {
	return arena.Handle(uint64(1)<<32 | uint64(i+1))
}

// ---------------------------------------------------------------------------
// go test -bench entry points.

const benchBatch = 256

// BenchmarkScan runs HP's engine scan over a fixed workload: a fully
// populated published hazard-pointer matrix (threads×hps) and a retired
// list in which one entry in four is published (kept by the scan) and
// the rest are strangers (freed). Free is a no-op so the same list
// replays every iteration.
func BenchmarkScan(b *testing.B) {
	const threads, hps = 8, 8
	s := newHP(Env{Free: func(int, arena.Handle) {}}, Options{MaxThreads: threads, MaxHPs: hps}, fixed(benchBatch))
	published := make([]arena.Handle, 0, threads*hps)
	for t := 0; t < threads; t++ {
		for i := 0; i < hps; i++ {
			h := benchHandle(t*hps + i)
			s.Protect(t, i, h)
			published = append(published, h)
		}
	}
	template := make([]hpItem, benchBatch)
	for i := range template {
		if i%4 == 0 {
			template[i] = hpItem(published[i%len(published)])
		} else {
			template[i] = hpItem(benchHandle(1<<20 + i))
		}
	}
	l := &s.tl[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.items = append(l.items[:0], template...)
		s.scan(0)
	}
}

// BenchmarkProtectHop measures the protection publish: the elided path
// (republishing the value the slot already holds — the traversal hot
// case) against the store path (the value changes every call).
func BenchmarkProtectHop(b *testing.B) {
	a, env := testEnv(b, arena.Strict)
	s := newHP(env, Options{MaxThreads: 2, MaxHPs: 4}, limits{})
	h1 := allocNode(a, s)
	h2 := allocNode(a, s)
	var slot atomic.Uint64
	b.Run("elided", func(b *testing.B) {
		slot.Store(uint64(h1))
		s.GetProtected(0, 0, &slot)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.GetProtected(0, 0, &slot)
		}
	})
	b.Run("store", func(b *testing.B) {
		hs := [2]uint64{uint64(h1), uint64(h2)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot.Store(hs[i&1]) // target moves: every publish must store
			s.GetProtected(0, 0, &slot)
		}
	})
}
