package core

import (
	"testing"

	"repro/internal/arena"
)

// These tests pin down the Algorithm 7 assignment semantics: index
// claiming, sharing via usedHaz, the reuse fast path, and the
// copy-toward-higher-indices direction rule.

func TestAssignClaimsLowestFreeIndex(t *testing.T) {
	d := newTestDomain(1)
	var p1, p2, p3 Ptr
	d.Make(0, nil, &p1)
	d.Make(0, nil, &p2)
	d.Make(0, nil, &p3)
	if p1.idx != 1 || p2.idx != 2 || p3.idx != 3 {
		t.Fatalf("indices %d %d %d, want 1 2 3", p1.idx, p2.idx, p3.idx)
	}
	d.Release(0, &p2)
	var p4 Ptr
	d.Make(0, nil, &p4)
	if p4.idx != 2 {
		t.Fatalf("freed index not reclaimed: got %d want 2", p4.idx)
	}
	d.Release(0, &p1)
	d.Release(0, &p3)
	d.Release(0, &p4)
	d.FlushAll()
}

func TestCopyShareCountsUses(t *testing.T) {
	d := newTestDomain(1)
	var src Ptr
	d.Make(0, nil, &src)
	idx := src.idx

	// Copy from lower (src) into fresh dst: dst claims an index ABOVE
	// src's per the direction rule... here dst is unattached, so it
	// shares? No: unattached + srcIdx>0 shares the index.
	var dst Ptr
	d.CopyPtr(0, &dst, &src)
	if dst.idx != idx {
		t.Fatalf("fresh copy should share the index: %d vs %d", dst.idx, idx)
	}
	if d.tl[0].usedHaz[idx] != 2 {
		t.Fatalf("usedHaz=%d want 2", d.tl[0].usedHaz[idx])
	}
	d.Release(0, &src)
	if d.tl[0].usedHaz[idx] != 1 {
		t.Fatalf("usedHaz=%d want 1 after one release", d.tl[0].usedHaz[idx])
	}
	if !d.arena.Valid(dst.H()) {
		t.Fatal("object died while dst still holds it")
	}
	d.Release(0, &dst)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

func TestAssignDirectionRule(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var a, b Ptr
	h := d.Make(0, nil, &a) // a at idx 1
	d.Store(0, &root, h)
	d.Load(0, &root, &b) // b claims idx 2

	// Assign b into a: b.idx (2) > a.idx (1) → a must move UP to share
	// b's index, never pull the protection down below the scanner.
	d.CopyPtr(0, &a, &b)
	if a.idx < b.idx {
		t.Fatalf("direction rule violated: a.idx=%d < b.idx=%d", a.idx, b.idx)
	}
	d.Release(0, &a)
	d.Release(0, &b)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
}

func TestAssignReusePath(t *testing.T) {
	d := newTestDomain(1)
	var root1, root2 Atomic
	var p Ptr
	h1 := d.Make(0, nil, &p)
	d.Store(0, &root1, h1)
	d.Release(0, &p)
	var p2 Ptr
	h2 := d.Make(0, nil, &p2)
	d.Store(0, &root2, h2)
	d.Release(0, &p2)

	// Repeated loads into one sole-user Ptr must reuse its index (Load's
	// fused sole-user path), not walk the index space.
	var lp Ptr
	d.Load(0, &root1, &lp)
	first := lp.idx
	for i := 0; i < 50; i++ {
		d.Load(0, &root2, &lp)
		d.Load(0, &root1, &lp)
	}
	if lp.idx != first {
		t.Fatalf("index drifted from %d to %d despite sole use", first, lp.idx)
	}
	d.Release(0, &lp)
	d.Store(0, &root1, arena.Nil)
	d.Store(0, &root2, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

// TestLoadSoleUserPublishesInPlace: a Load into a Ptr that is the sole
// user of its index publishes in that index directly — p.idx stays put
// and the scratch slot is never written.
func TestLoadSoleUserPublishesInPlace(t *testing.T) {
	d := newTestDomain(1)
	var root1, root2 Atomic
	var p Ptr
	h1 := d.Make(0, nil, &p)
	d.Store(0, &root1, h1)
	d.Release(0, &p)
	h2 := d.Make(0, nil, &p)
	d.Store(0, &root2, h2)
	d.Release(0, &p)

	var lp Ptr
	d.Load(0, &root1, &lp)
	idx := lp.idx
	d.LoadScratch(0, &root1) // park a known value in the scratch slot
	tl := d.tl[0]
	scratch := tl.shadow[0]
	for i := 0; i < 10; i++ {
		if got := d.Load(0, &root2, &lp); got != h2 {
			t.Fatalf("Load returned %v want %v", got, h2)
		}
		if lp.idx != idx {
			t.Fatalf("sole-user Load moved the index %d -> %d", idx, lp.idx)
		}
		if tl.shadow[0] != scratch || tl.hp[0].Load() != scratch {
			t.Fatalf("sole-user Load wrote the scratch slot: %x -> %x", scratch, tl.shadow[0])
		}
		if tl.hp[idx].Load() != uint64(h2) {
			t.Fatal("loaded object not published at the Ptr's own index")
		}
		d.Load(0, &root1, &lp)
	}
	d.Release(0, &lp)
	d.Store(0, &root1, arena.Nil)
	d.Store(0, &root2, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

// TestLoadEmptyClaimsLowestFree: an empty Ptr's first Load claims the
// lowest free index ≥ 1 and publishes there without touching slot 0.
func TestLoadEmptyClaimsLowestFree(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var p1, p2 Ptr
	h := d.Make(0, nil, &p1) // idx 1
	d.Make(0, nil, &p2)      // idx 2
	d.Store(0, &root, h)
	d.Release(0, &p1) // frees idx 1; h stays linked from root

	tl := d.tl[0]
	d.pub(tl, 0, 0) // empty the scratch slot so any write to it shows

	var lp Ptr
	d.Load(0, &root, &lp)
	if lp.idx != 1 {
		t.Fatalf("first Load claimed idx %d, want the lowest free (1)", lp.idx)
	}
	if tl.shadow[0] != 0 || tl.hp[0].Load() != 0 {
		t.Fatal("first Load into an empty Ptr wrote the scratch slot")
	}
	if tl.hp[1].Load() != uint64(h) || tl.usedHaz[1] != 1 {
		t.Fatalf("idx 1: hp=%x usedHaz=%d", tl.hp[1].Load(), tl.usedHaz[1])
	}
	d.Release(0, &lp)
	d.Release(0, &p2)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

// TestSwapPtrMovesNoProtection: SwapPtr exchanges which Ptr names which
// slot and writes nothing, so both objects stay protected where they
// were published until the swapped Ptrs are released.
func TestSwapPtrMovesNoProtection(t *testing.T) {
	d := newTestDomain(2)
	var rootA, rootB Atomic
	var p Ptr
	ha := d.Make(0, func(n *tNode) { n.Val = 1 }, &p)
	d.Store(0, &rootA, ha)
	hb := d.Make(0, func(n *tNode) { n.Val = 2 }, &p)
	d.Store(0, &rootB, hb)
	d.Release(0, &p)

	var pa, pb Ptr
	d.Load(1, &rootA, &pa)
	d.Load(1, &rootB, &pb)
	ia, ib := pa.idx, pb.idx
	tl := d.tl[1]
	before := [2]uint64{tl.hp[ia].Load(), tl.hp[ib].Load()}

	d.SwapPtr(1, &pa, &pb)
	if pa.H() != hb || pa.idx != ib || pb.H() != ha || pb.idx != ia {
		t.Fatalf("swap: pa=(%v,%d) pb=(%v,%d)", pa.H(), pa.idx, pb.H(), pb.idx)
	}
	if tl.hp[ia].Load() != before[0] || tl.hp[ib].Load() != before[1] ||
		tl.usedHaz[ia] != 1 || tl.usedHaz[ib] != 1 {
		t.Fatal("SwapPtr changed a slot or a usedHaz count")
	}

	d.Store(0, &rootA, arena.Nil) // thread 0 unlinks both roots
	d.Store(0, &rootB, arena.Nil)
	if !d.arena.Valid(ha) || !d.arena.Valid(hb) {
		t.Fatal("object freed while a swapped Ptr protects it")
	}
	if d.Get(pa.H()).Val != 2 || d.Get(pb.H()).Val != 1 {
		t.Fatal("payload damaged through swapped Ptrs")
	}
	d.Release(1, &pa)
	if !d.arena.Valid(ha) {
		t.Fatal("a freed while pb still protects it")
	}
	d.Release(1, &pb)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

func TestSharedIdxNotReusedOnAssign(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var a, b Ptr
	h := d.Make(0, nil, &a)
	d.Store(0, &root, h)
	d.CopyPtr(0, &b, &a) // b shares a's index (usedHaz = 2)
	sharedIdx := a.idx

	// Loading into a (NOT the sole user of its index) must claim a fresh
	// index and publish there, leaving b's protection untouched at the
	// shared one and the scratch slot unwritten.
	d.pub(d.tl[0], 0, 0)
	d.Load(0, &root, &a)
	if a.idx == sharedIdx {
		t.Fatal("assignment reused a shared index")
	}
	if d.tl[0].usedHaz[sharedIdx] != 1 {
		t.Fatalf("b lost its claim: usedHaz=%d", d.tl[0].usedHaz[sharedIdx])
	}
	if d.tl[0].hp[0].Load() != 0 || d.tl[0].hp[a.idx].Load() != uint64(h) {
		t.Fatal("shared-index Load did not publish at its fresh index alone")
	}
	d.Release(0, &a)
	d.Release(0, &b)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
}

// TestFreshFlagTransitions pins which fills mark a Ptr fresh (its object
// may never have been linked, so clear must check its counter): Make
// sets it, CopyPtr and SwapPtr carry it, and Load, AdoptScratch and
// Release clear it.
func TestFreshFlagTransitions(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var p, q, r Ptr
	h := d.Make(0, nil, &p)
	if !p.fresh {
		t.Fatal("Make did not mark the Ptr fresh")
	}
	d.CopyPtr(0, &q, &p)
	if !q.fresh {
		t.Fatal("CopyPtr of a fresh Ptr lost the flag")
	}
	d.Store(0, &root, h)
	d.Load(0, &root, &r)
	if r.fresh {
		t.Fatal("Load left the Ptr fresh")
	}
	d.SwapPtr(0, &q, &r)
	if q.fresh || !r.fresh {
		t.Fatal("SwapPtr did not carry the flag")
	}
	d.CopyPtr(0, &r, &q) // a non-fresh source overwrites a fresh dst
	if r.fresh {
		t.Fatal("CopyPtr of a non-fresh Ptr left dst fresh")
	}
	d.Load(0, &root, &p) // sole-user Load path
	if p.fresh {
		t.Fatal("sole-user Load left the Ptr fresh")
	}
	d.Make(0, nil, &p)
	hs := d.LoadScratch(0, &root)
	d.AdoptScratch(0, &p, hs)
	if p.fresh {
		t.Fatal("AdoptScratch left the Ptr fresh")
	}
	d.Make(0, nil, &q)
	d.Release(0, &q)
	if q.fresh || q.idx != 0 || !q.IsNil() {
		t.Fatal("Release did not reset the Ptr")
	}
	d.Release(0, &p)
	d.Release(0, &r)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
	if live := d.arena.Stats().Live; live != 0 {
		t.Fatalf("leak: %d", live)
	}
}

func TestSetNilDropsProtection(t *testing.T) {
	d := newTestDomain(1)
	var p Ptr
	h := d.Make(0, nil, &p)
	d.SetNil(0, &p)
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object survived SetNil of its only reference")
	}
	if !p.IsNil() || p.idx != 0 {
		t.Fatal("Ptr not reset by SetNil")
	}
}

func TestReleaseIdempotentOnEmpty(t *testing.T) {
	d := newTestDomain(1)
	var p Ptr
	d.Release(0, &p) // empty release is a no-op
	d.Release(0, &p)
	h := d.Make(0, nil, &p)
	d.Release(0, &p)
	d.Release(0, &p) // second release after emptying: no-op
	d.FlushAll()
	if d.arena.Valid(h) {
		t.Fatal("object leaked")
	}
}

func TestUnmarkKeepsProtection(t *testing.T) {
	d := newTestDomain(1)
	var root Atomic
	var p Ptr
	h := d.Make(0, nil, &p)
	d.Store(0, &root, h.WithMark())
	var lp Ptr
	got := d.Load(0, &root, &lp)
	if !got.Marked() {
		t.Fatal("mark lost through Load")
	}
	lp.Unmark()
	if lp.H() != h {
		t.Fatalf("Unmark gave %v want %v", lp.H(), h)
	}
	_ = d.Get(lp.H()) // must still be protected
	d.Release(0, &p)
	d.Release(0, &lp)
	d.Store(0, &root, arena.Nil)
	d.FlushAll()
}

func TestIndexExhaustionPanics(t *testing.T) {
	a := arena.New[tNode]()
	d := NewDomain(a, nil, DomainConfig{MaxThreads: 1, MaxHPs: 4})
	var keep [8]Ptr
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when hp indices run out")
		}
	}()
	for i := range keep {
		d.Make(0, nil, &keep[i]) // distinct objects, distinct indices
	}
}

func TestScratchNotClaimable(t *testing.T) {
	d := newTestDomain(1)
	var p Ptr
	d.Make(0, nil, &p)
	if p.idx == 0 {
		t.Fatal("a named Ptr must never sit on the scratch index")
	}
	d.Release(0, &p)
	d.FlushAll()
}
