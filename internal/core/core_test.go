package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arena"
)

// tNode is a minimal tracked node with one orc link.
type tNode struct {
	Val  uint64
	Next Atomic
}

func newTestDomain(threads int) *Domain[tNode] {
	a := arena.New[tNode]()
	return NewDomain(a, func(n *tNode, visit func(*Atomic)) {
		visit(&n.Next)
	}, DomainConfig{MaxThreads: threads, MaxHPs: 16})
}

func TestOrcWordProperties(t *testing.T) {
	f := func(incs, decs uint8) bool {
		w := orcZero
		for i := 0; i < int(incs); i++ {
			w += seqUnit + 1
		}
		for i := 0; i < int(decs); i++ {
			w += seqUnit - 1
		}
		if orcCount(w) != int64(incs)-int64(decs) {
			return false
		}
		if orcSeq(w) != uint64(incs)+uint64(decs) {
			return false
		}
		// ocnt == ORC_ZERO exactly when the counter nets to zero and
		// BRETIRED is clear.
		return (ocnt(w) == orcZero) == (incs == decs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrcWordRetiredBit(t *testing.T) {
	w := orcZero + bretired
	if !orcRetired(w) {
		t.Fatal("retired bit not detected")
	}
	if ocnt(w) != (bretired | orcZero) {
		t.Fatal("ocnt must include the BRETIRED bit")
	}
	w += ^bretired + 1 // clear via fetch_add(-BRETIRED)
	if orcRetired(w) || ocnt(w) != orcZero {
		t.Fatalf("clearing BRETIRED broke the word: %x", w)
	}
}

// TestMakeReleaseReclaims: an object never linked anywhere dies when its
// only Ptr is released.
func TestMakeReleaseReclaims(t *testing.T) {
	d := newTestDomain(2)
	var p Ptr
	h := d.Make(0, func(n *tNode) { n.Val = 7 }, &p)
	if d.Get(h).Val != 7 {
		t.Fatal("init not applied")
	}
	d.Release(0, &p)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("unlinked object survived Release")
	}
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("%d objects leaked", live)
	}
}

// TestHardLinkKeepsAlive: a hard link from a root Atomic pins the object
// after all local references die; removing the link reclaims it.
func TestHardLinkKeepsAlive(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	h := d.Make(0, func(n *tNode) { n.Val = 1 }, &p)
	d.Store(0, &root, p.H())
	d.Release(0, &p)
	d.FlushAll()
	if !d.arena.Valid(h) {
		t.Fatal("hard-linked object reclaimed")
	}
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived unlinking")
	}
}

// TestLoadProtects: a Ptr from Load keeps the object alive through a
// concurrent unlink.
func TestLoadProtects(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, p.H())
	d.Release(0, &p)

	var lp Ptr
	got := d.Load(1, &root, &lp) // thread 1 takes a protected local ref
	if got != h {
		t.Fatalf("Load returned %v want %v", got, h)
	}
	d.Store(0, &root, arena.Nil) // thread 0 unlinks
	if !d.arena.Valid(h) {
		t.Fatal("object freed while a Ptr protects it")
	}
	_ = d.Get(lp.H()) // must not fault
	d.Release(1, &lp)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived final release")
	}
}

// TestChainCollapse: dropping the head of a long chain reclaims every
// node without deep recursion (Algorithm 5's recursiveList).
func TestChainCollapse(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	const n = 50_000

	var prev Ptr
	d.Make(0, func(nd *tNode) { nd.Val = 0 }, &prev)
	d.Store(0, &root, prev.H())
	for i := 1; i < n; i++ {
		var p Ptr
		d.Make(0, func(nd *tNode) { nd.Val = uint64(i) }, &p)
		d.Store(0, &d.Get(prev.H()).Next, p.H())
		d.CopyPtr(0, &prev, &p)
		d.Release(0, &p)
	}
	d.Release(0, &prev)
	if live := d.arena.Stats().Live; live != n {
		t.Fatalf("built %d, want %d", live, n)
	}

	d.Store(0, &root, arena.Nil) // drop the chain head
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("chain collapse leaked %d of %d nodes", live, n)
	}
}

// TestReinsertion: the paper's third obstacle — an object that reaches
// zero hard links while a thread holds a local reference can be linked
// back in and must not be reclaimed.
func TestReinsertion(t *testing.T) {
	d := newTestDomain(2)
	var rootA, rootB Atomic
	var p Ptr
	h := d.Make(0, func(n *tNode) { n.Val = 42 }, &p)
	d.Store(0, &rootA, p.H())

	var lp Ptr
	d.Load(1, &rootA, &lp) // thread 1 holds a local ref

	d.Store(0, &rootA, arena.Nil) // zero hard links: retired internally
	if !d.arena.Valid(h) {
		t.Fatal("freed while locally referenced")
	}

	d.Store(1, &rootB, lp.H()) // thread 1 re-inserts via its local ref
	d.Release(1, &lp)
	d.FlushAll()
	if !d.arena.Valid(h) {
		t.Fatal("re-inserted object was reclaimed")
	}
	if d.Get(h).Val != 42 {
		t.Fatal("payload damaged across retire/reinsert")
	}

	d.Store(1, &rootB, arena.Nil)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived final unlink")
	}
}

// TestCopyPtrSharing: two Ptrs to the same object; the object survives
// until both are released.
func TestCopyPtrSharing(t *testing.T) {
	d := newTestDomain(2)
	var p, q Ptr
	h := d.Make(0, nil, &p)
	d.CopyPtr(0, &q, &p)
	d.Release(0, &p)
	if !d.arena.Valid(h) {
		t.Fatal("freed while q still holds it")
	}
	_ = d.Get(q.H())
	d.Release(0, &q)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived both releases")
	}
}

// TestCASMaintainsCounts: successful CAS moves both counters; failed CAS
// moves neither.
func TestCASMaintainsCounts(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p1, p2 Ptr
	h1 := d.Make(0, nil, &p1)
	h2 := d.Make(0, nil, &p2)
	d.Store(0, &root, h1)

	if d.CAS(0, &root, h2, h1) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !d.CAS(0, &root, h1, h2) {
		t.Fatal("CAS failed")
	}
	d.Release(0, &p1)
	d.Release(0, &p2)
	d.FlushAll()
	if d.arena.Valid(h1) {
		t.Fatal("h1 (unlinked by CAS) not reclaimed")
	}
	if !d.arena.Valid(h2) {
		t.Fatal("h2 (linked by CAS) reclaimed")
	}
}

// TestMarkedLinkCounting: storing a marked handle counts toward the same
// object as its unmarked form (Harris-style mark flips are count-neutral).
func TestMarkedLinkCounting(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, h)
	d.Release(0, &p)

	// Flip the mark bit via CAS: same referent, net count change zero.
	if !d.CAS(0, &root, h, h.WithMark()) {
		t.Fatal("mark CAS failed")
	}
	d.FlushAll()
	if !d.arena.Valid(h) {
		t.Fatal("mark flip reclaimed the object")
	}
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived unlink of marked handle")
	}
}

// TestExchange: displaced handles lose a count.
func TestExchange(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p1, p2 Ptr
	h1 := d.Make(0, nil, &p1)
	h2 := d.Make(0, nil, &p2)
	d.Store(0, &root, h1)
	old := d.Exchange(0, &root, h2)
	if old != h1 {
		t.Fatalf("Exchange returned %v want %v", old, h1)
	}
	d.Release(0, &p1)
	d.Release(0, &p2)
	d.FlushAll()
	if d.arena.Valid(h1) {
		t.Fatal("displaced object leaked")
	}
	if !d.arena.Valid(h2) {
		t.Fatal("stored object reclaimed")
	}
}

// TestLoadScratchComparison: LoadScratch protects long enough to compare.
func TestLoadScratchComparison(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, h)
	if got := d.LoadScratch(0, &root); got != h {
		t.Fatalf("LoadScratch %v want %v", got, h)
	}
	d.Release(0, &p)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
}

// TestConcurrentChurn hammers a shared root from many goroutines: loads,
// stores, CASes. The strict arena panics on any use-after-free; at the
// end everything must drain to zero live objects.
func TestConcurrentChurn(t *testing.T) {
	const threads = 8
	const iters = 5_000
	d := newTestDomain(threads)
	roots := make([]Atomic, 8)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*2654435761 + 1
			var p, lp Ptr
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				r := &roots[rng%uint64(len(roots))]
				switch rng % 4 {
				case 0, 1: // load + dereference
					h := d.Load(tid, r, &lp)
					if !h.IsNil() {
						if d.Get(h).Val == ^uint64(0) {
							panic("impossible payload")
						}
					}
				case 2: // publish a fresh node
					d.Make(tid, func(n *tNode) { n.Val = rng }, &p)
					d.Store(tid, r, p.H())
				case 3: // drop the root
					d.Store(tid, r, arena.Nil)
				}
			}
			d.Release(tid, &p)
			d.Release(tid, &lp)
		}(w)
	}
	wg.Wait()

	for i := range roots {
		d.Store(0, &roots[i], arena.Nil)
	}
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("churn leaked %d objects", live)
	}
	retires, frees := d.Stats()
	t.Logf("retires=%d frees=%d allocs=%d", retires, frees, d.arena.Stats().Allocs)
}

// TestRotatingTraversalUnderRelink: one goroutine walks a chain the way
// the Michael list does — a fused Load into next, then SwapPtr(cur,
// next) — while another keeps replacing interior nodes (unlink the
// successor, link a fresh one in its place). The strict arena panics on
// any use-after-free; Faults must stay 0 and everything drains.
func TestRotatingTraversalUnderRelink(t *testing.T) {
	const chain = 32
	const rounds = 2_000
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	for i := chain; i >= 0; i-- {
		old := root.Raw()
		d.Make(0, func(n *tNode) { n.Val = uint64(i) }, &p)
		d.InitLink(0, &d.Get(p.H()).Next, old) // old is held by root
		d.Store(0, &root, p.H())
	}
	d.Release(0, &p)

	done := make(chan struct{})
	go func() { // writer, tid 1
		defer close(done)
		var cur, next, succ, fresh Ptr
		rng := uint64(7)
		for r := 0; r < rounds; r++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			d.Load(1, &root, &cur)
			for steps := rng % chain; steps > 0; steps-- {
				if d.Load(1, &d.Get(cur.H()).Next, &next).IsNil() {
					break
				}
				d.SwapPtr(1, &cur, &next)
			}
			nh := d.Load(1, &d.Get(cur.H()).Next, &next)
			if nh.IsNil() {
				continue
			}
			sh := d.Load(1, &d.Get(nh).Next, &succ)
			d.Make(1, func(n *tNode) { n.Val = rng }, &fresh)
			d.InitLink(1, &d.Get(fresh.H()).Next, sh)
			d.Store(1, &d.Get(cur.H()).Next, fresh.H()) // unlinks nh
		}
		for _, q := range []*Ptr{&cur, &next, &succ, &fresh} {
			d.Release(1, q)
		}
	}()

	var cur, next Ptr
	var walks, hops int
	for running := true; running; walks++ {
		select {
		case <-done:
			running = false
		default:
		}
		d.Load(0, &root, &cur)
		for {
			nh := d.Load(0, &d.Get(cur.H()).Next, &next)
			if nh.IsNil() {
				break
			}
			_ = d.Get(nh).Val
			d.SwapPtr(0, &cur, &next)
			hops++
		}
	}
	d.Release(0, &cur)
	d.Release(0, &next)

	if f := d.arena.Stats().Faults; f != 0 {
		t.Fatalf("%d use-after-free faults", f)
	}
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leaked %d", live)
	}
	t.Logf("walks=%d hops=%d", walks, hops)
}

// TestPtrIdxReuse: repeatedly loading into the same Ptr must not leak
// hazard-pointer indices (the reuse path of the assignment operator).
func TestPtrIdxReuse(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, h)
	d.Release(0, &p)

	var lp Ptr
	for i := 0; i < 1000; i++ {
		d.Load(0, &root, &lp)
	}
	if lp.idx >= 4 {
		t.Fatalf("index leak: lp.idx=%d after repeated loads", lp.idx)
	}
	d.Release(0, &lp)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

// TestHandoverOnRelease: thread B protects an object; thread A unlinks
// it; the object parks rather than frees; B's release lets it die.
func TestHandoverOnRelease(t *testing.T) {
	d := newTestDomain(2)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, h)
	d.Release(0, &p)

	var lp Ptr
	d.Load(1, &root, &lp)
	d.Store(0, &root, arena.Nil)
	if !d.arena.Valid(h) {
		t.Fatal("freed while protected by thread 1")
	}
	d.Release(1, &lp)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("not reclaimed after protection dropped")
	}
}

// TestHandoverPastTidWatermark: retire scans stop at the tid watermark,
// so a high tid's first publication must raise it. Tid 40 protects X;
// tid 0 unlinks X, which parks on tid 0's own scratch slot, then unlinks
// Y, which moves X off that slot and rescans: X must land in tid 40's
// handover slot rather than be freed.
func TestHandoverPastTidWatermark(t *testing.T) {
	const hi = 40
	d := newTestDomain(64)
	var root Atomic
	var p, lp Ptr
	x := d.Make(0, nil, &p)
	d.Store(0, &root, x)
	d.Release(0, &p)
	if d.Threads() != 1 {
		t.Fatalf("watermark %d after tid 0 alone, want 1", d.Threads())
	}
	d.Load(hi, &root, &lp)
	if d.Threads() != hi+1 {
		t.Fatalf("watermark %d after tid %d published, want %d", d.Threads(), hi, hi+1)
	}
	d.Store(0, &root, arena.Nil)
	y := d.Make(0, nil, &p)
	d.Store(0, &root, y)
	d.Release(0, &p)
	d.Store(0, &root, arena.Nil)
	if !d.arena.Valid(x) {
		t.Fatalf("freed while protected by tid %d", hi)
	}
	if got := arena.Handle(d.tl[hi].handovers[lp.idx].Load()); got != x {
		t.Fatalf("tid %d's handover slot holds %v, want %v", hi, got, x)
	}
	d.Release(hi, &lp)
	d.FlushAll()
	if d.arena.Valid(x) {
		t.Fatal("not reclaimed after protection dropped")
	}
}

// TestMaxHPsWatermark grows as indices are claimed.
func TestMaxHPsWatermark(t *testing.T) {
	d := newTestDomain(1)
	if d.maxHPs.Load() != 1 {
		t.Fatalf("initial watermark %d, want 1 (scratch)", d.maxHPs.Load())
	}
	var root Atomic
	var p1, p2, p3 Ptr
	h := d.Make(0, nil, &p1)
	d.Store(0, &root, h)
	d.Load(0, &root, &p2)
	d.CopyPtr(0, &p3, &p2)
	if d.maxHPs.Load() < 2 {
		t.Fatalf("watermark %d did not grow", d.maxHPs.Load())
	}
	d.Release(0, &p1)
	d.Release(0, &p2)
	d.Release(0, &p3)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
}
