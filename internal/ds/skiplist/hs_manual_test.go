package skiplist

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/reclaim"
	"repro/internal/rt"
)

// insertLevel inserts key with tid 0 until its node's tower height
// satisfies ok (heights are drawn per tid, so each retry moves on).
func insertLevel(s *HSManual, key uint64, ok func(int32) bool) arena.Handle {
	for {
		s.Insert(0, key)
		var r mseek
		s.find(key, &r)
		if ok(s.a.Get(r.succs[0]).topLevel) {
			return r.succs[0]
		}
		s.Remove(0, key)
	}
}

func flushEBR(s *HSManual, threads int) {
	for round := 0; round < 4; round++ {
		for tid := 0; tid < threads; tid++ {
			s.s.Flush(tid)
		}
	}
}

// TestHSManualUpperLinkUsesCurrentSuccessor: X is removed and reclaimed
// between an insert's find and its level-1 link. The book's retry links
// the new node at level 1 with the successor its first find saw, so a
// later traversal through it at level 1 reads the freed X.
func TestHSManualUpperLinkUsesCurrentSuccessor(t *testing.T) {
	s := NewHSManual("ebr", reclaim.Options{MaxThreads: 3})
	// level 1: A(10) → X(40); level 0: A → B(30) → X.
	insertLevel(s, 10, func(l int32) bool { return l >= 1 })
	insertLevel(s, 30, func(l int32) bool { return l == 0 })
	x := insertLevel(s, 40, func(l int32) bool { return l >= 1 })
	for { // make tid 1's next insert draw a tower of height ≥ 1
		st := s.rng.states[1].Load()
		if s.rng.next(1) >= 1 {
			s.rng.states[1].Store(st)
			break
		}
	}

	armed := true
	rt.SetHook(func(site rt.Site, _ int) {
		if site == rt.SiteAlloc && armed { // tid 1's insert, after its find
			armed = false
			s.Remove(2, 40)
		}
	})
	s.Insert(1, 20)
	rt.SetHook(nil)
	flushEBR(s, 3)
	if s.a.Valid(x) {
		t.Fatal("removed X was not reclaimed; the test cannot observe a stale link")
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("traversal after the insert: %v", p)
		}
	}()
	if s.Contains(0, 50) || !s.Contains(0, 20) {
		t.Fatal("wrong membership after the insert")
	}
}

// TestHSManualNoLinkBeforeRemovedTwin: an insert's find sees X, a node
// with the same key, live at level 1; X is removed before the find
// reaches level 0, where it is snipped. Linking the new node at level 1
// in front of X would hide X from its own final find, which would then
// retire X while the new node still links to it.
func TestHSManualNoLinkBeforeRemovedTwin(t *testing.T) {
	s := NewHSManual("ebr", reclaim.Options{MaxThreads: 3})
	x := insertLevel(s, 20, func(l int32) bool { return l >= 1 })
	xn := s.a.Get(x)
	xn.claims.Store(0) // X's inserter has not let go yet
	var r mseek
	s.find(20, &r) // upper levels: head → X
	if !s.Remove(2, 20) {
		t.Fatal("remove failed")
	}
	// The rest of the descent: level 0 snips the marked X.
	r.succs[0] = arena.Handle(xn.next[0].Load()).Unmarked()
	s.a.Get(s.headH).next[0].Store(uint64(r.succs[0]))

	s.s.BeginOp(1)
	nh, n := s.a.AllocT(1)
	n.key, n.topLevel = 20, 1
	s.link(1, nh, n, &r)
	s.s.EndOp(1)
	s.s.BeginOp(0)
	s.release(0, x, &r) // X's inserter lets go: final find, then retire
	s.s.EndOp(0)
	flushEBR(s, 3)
	if s.a.Valid(x) {
		t.Fatal("removed X was not reclaimed; the test cannot observe a stale link")
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("traversal after the insert: %v", p)
		}
	}()
	if s.Contains(0, 50) || !s.Contains(0, 20) {
		t.Fatal("wrong membership after the insert")
	}
}

// TestHSManualRemoveWaitsForInserter: a node removed while its inserter
// may still link upper levels is retired only once both have let go.
func TestHSManualRemoveWaitsForInserter(t *testing.T) {
	s := NewHSManual("ebr", reclaim.Options{MaxThreads: 3})
	k := insertLevel(s, 20, func(l int32) bool { return l >= 1 })
	s.a.Get(k).claims.Store(0) // the inserter has not let go yet

	if !s.Remove(2, 20) {
		t.Fatal("remove failed")
	}
	flushEBR(s, 3)
	if !s.a.Valid(k) {
		t.Fatal("node reclaimed while its inserter still held it")
	}
	var r mseek
	s.s.BeginOp(1)
	s.release(1, k, &r) // the inserter finishes
	s.s.EndOp(1)
	flushEBR(s, 3)
	if s.a.Valid(k) {
		t.Fatal("node not reclaimed after both claims were released")
	}
}
