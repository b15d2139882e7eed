package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestPeekGetUnderChurn checks the speculative Get and Contains against
// what holds under concurrent churn. Four buckets keep the chains long,
// so every walk crosses nodes that writers free and recycle under it.
//   - keys ≡ 0 mod 4 are put before the run with value k and never
//     touched again: always found, always with value k;
//   - keys ≡ 1 mod 4 are never inserted: never found;
//   - key mono is put only by writer 0, with values rising from 1: a
//     reader never sees it missing or going backwards;
//   - keys ≡ 2, 3 mod 4 churn through Put and Remove.
//
// Run it under -race (make race-peek): the detector's slowdown widens
// the window between a walk's reads and its validation enough that a
// walk which skipped validation fails here.
func TestPeekGetUnderChurn(t *testing.T) {
	const writers, readers, keys, writerOps = 2, 2, 256, 10_000
	const mono = keys + 4
	m := NewOrc(0, 4, core.DomainConfig{MaxThreads: writers + readers})
	for k := uint64(4); k <= keys; k += 4 {
		m.Put(0, k, k)
	}
	m.Put(0, mono, 1)
	var stop atomic.Bool
	var lost, wrong, ghosts, backwards atomic.Uint64
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			x := uint64(tid)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < writerOps; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := (x>>33)%(keys/4)*4 + 2 + (x>>20)&1 // ≡ 2 or 3 mod 4
				if x>>40&1 == 0 {
					m.Put(tid, k, x)
				} else {
					m.Remove(tid, k)
				}
				if tid == 0 {
					m.Put(tid, mono, uint64(i)+2)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(tid int) {
			defer rg.Done()
			x := uint64(tid) + 7
			last := uint64(0)
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := (x>>33)%(keys/4)*4 + 4
				switch v, ok := m.Get(tid, k); {
				case !ok:
					lost.Add(1)
				case v != k:
					wrong.Add(1)
				}
				if m.Contains(tid, k-3) {
					ghosts.Add(1)
				}
				v, ok := m.Get(tid, mono)
				if !ok {
					lost.Add(1)
				}
				if v < last {
					backwards.Add(1)
				}
				last = v
			}
		}(writers + r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if lost.Load()+wrong.Load()+ghosts.Load()+backwards.Load() != 0 {
		t.Fatalf("stable keys missed %d times, read with a wrong value %d times; never-inserted keys found %d times; the monotone value went backwards %d times",
			lost.Load(), wrong.Load(), ghosts.Load(), backwards.Load())
	}
	t.Logf("failed validations: %d", m.Domain().PeekFailures())
}
