package list

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
)

// peekNode walks the list the way the speculative Contains does and
// returns the handle of the node holding key, or arena.Nil.
func peekNode(l *MichaelOrc, key uint64) arena.Handle {
	for h := l.headH; ; {
		n, ok := l.d.Peek(h)
		if !ok || n.key > key {
			return arena.Nil
		}
		if n.key == key {
			return h
		}
		h = n.next.Peek().Unmarked()
	}
}

// TestPeekRecycledSlot drives the case validation exists for, one step at
// a time: a reader has peeked a node, the node is removed and freed (it
// holds no protection), and an insert of another key recycles its slot.
// The stale pointer now reads the new key; only Unchanged tells the two
// lifetimes apart, and Contains must answer for both keys.
func TestPeekRecycledSlot(t *testing.T) {
	l := NewMichaelOrc(0, core.DomainConfig{MaxThreads: 1})
	d := l.Domain()
	for k := uint64(1); k <= 10; k++ {
		l.Insert(0, k)
	}
	h := peekNode(l, 5)
	n, ok := d.Peek(h)
	if !ok || n.key != 5 || !d.Unchanged(h) {
		t.Fatalf("peek of key 5: ok=%v", ok)
	}
	if !l.Remove(0, 5) {
		t.Fatal("remove 5 failed")
	}
	// An unlinked node waits in its remover's handover slot until the
	// remover's next retire; removing more keys frees it.
	for k := uint64(1); k <= 4 && d.Unchanged(h); k++ {
		l.Remove(0, k)
	}
	if d.Unchanged(h) {
		t.Fatal("node 5 still live after its removal and four more")
	}
	if !l.Insert(0, 7_000) {
		t.Fatal("insert 7000 failed")
	}
	h2 := peekNode(l, 7_000)
	if h2.Index() != h.Index() || h2 == h {
		t.Fatalf("insert did not recycle node 5's slot: %v then %v", h, h2)
	}
	if n.key != 7_000 {
		t.Fatalf("stale pointer reads key %d, want the recycled slot's 7000", n.key)
	}
	if d.Unchanged(h) {
		t.Fatal("Unchanged accepts the handle of a recycled slot")
	}
	if _, ok := d.Peek(h); ok {
		t.Fatal("Peek accepts the handle of a recycled slot")
	}
	if l.Contains(0, 5) || !l.Contains(0, 7_000) {
		t.Fatalf("Contains(5)=%v Contains(7000)=%v, want false, true", l.Contains(0, 5), l.Contains(0, 7_000))
	}
	if f := d.PeekFailures(); f != 0 {
		t.Fatalf("%d failed validations with no concurrent writer", f)
	}
}

// TestPeekContainsUnderChurn checks the speculative Contains against the
// only facts that hold under concurrent churn: keys inserted before the
// run and never removed are always found, and keys never inserted are
// never found. Keys ≡ 0 mod 4 are stable, ≡ 1 absent, the rest churn, so
// every walk crosses nodes that writers free and recycle under it. Run
// it under -race (make race-peek): the detector's slowdown widens the
// window between a walk's reads and its validation enough that a walk
// which skipped validation fails here.
func TestPeekContainsUnderChurn(t *testing.T) {
	const writers, readers, keys, writerOps = 2, 2, 256, 10_000
	l := NewMichaelOrc(0, core.DomainConfig{MaxThreads: writers + readers})
	for k := uint64(4); k <= keys; k += 4 {
		l.Insert(0, k)
	}
	var stop atomic.Bool
	var lost, ghosts atomic.Uint64
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
					l.Insert(tid, k)
				} else {
					l.Remove(tid, k)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(tid int) {
			defer rg.Done()
			x := uint64(tid) + 7
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := (x>>33)%(keys/4)*4 + 4
				if !l.Contains(tid, k) {
					lost.Add(1)
				}
				if l.Contains(tid, k-3) {
					ghosts.Add(1)
				}
			}
		}(writers + r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if lost.Load() != 0 || ghosts.Load() != 0 {
		t.Fatalf("Contains missed a stable key %d times and found a never-inserted key %d times",
			lost.Load(), ghosts.Load())
	}
	t.Logf("failed validations: %d", l.Domain().PeekFailures())
}
