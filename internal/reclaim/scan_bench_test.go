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

// scanFixture is the shared scan workload: a published hazardous-pointer
// matrix (threads×hps, fully populated) and a per-tid retired-list
// template in which one entry in four is published (kept by the scan)
// and the rest are strangers (freed). Free is a no-op counter so the
// same template replays every iteration.
type scanFixture struct {
	hp       *hpArrays
	threads  int
	hps      int
	template []arena.Handle
	freed    atomic.Uint64
}

func newScanFixture(threads, hps, batch int) *scanFixture {
	f := &scanFixture{hp: newHPArrays(threads, hps), threads: threads, hps: hps}
	published := make([]arena.Handle, 0, threads*hps)
	for t := 0; t < threads; t++ {
		for i := 0; i < hps; i++ {
			h := benchHandle(t*hps + i)
			f.hp.publish(t, i, h)
			published = append(published, h)
		}
	}
	for i := 0; i < batch; i++ {
		if i%4 == 0 {
			f.template = append(f.template, published[i%len(published)])
		} else {
			f.template = append(f.template, benchHandle(1<<20+i))
		}
	}
	return f
}

func (f *scanFixture) free(arena.Handle) { f.freed.Add(1) }

// engineScan is the scan loop of HP.scan, using the engine's reusable
// snapshot and binary-search probes.
func (f *scanFixture) engineScan(e *scanEngine, tid int, list []arena.Handle) []arena.Handle {
	published := e.snapshotHP(tid, f.hp, f.threads, f.hps)
	keep := list[:0]
	for _, v := range list {
		if arena.SearchHandles(published, v) {
			keep = append(keep, v)
			continue
		}
		f.free(v)
	}
	return keep
}

// ---------------------------------------------------------------------------
// go test -bench entry points.

const benchBatch = 256

func BenchmarkScan(b *testing.B) {
	const threads, hps = 8, 8
	f := newScanFixture(threads, hps, benchBatch)
	e := newScanEngine(threads, threads*hps, benchBatch)
	list := make([]arena.Handle, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(list, f.template)
		f.engineScan(e, 0, list)
	}
}

// BenchmarkProtectHop measures the protection publish: the elided path
// (republishing the value the slot already holds — the traversal hot
// case) against the store path (the value changes every call).
func BenchmarkProtectHop(b *testing.B) {
	a, env := testEnv(b, arena.Strict)
	s := newHP(env, Options{MaxThreads: 2, MaxHPs: 4})
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
