// Package violations is orcvet's seeded-violation corpus: every line
// carrying a // want:<rule> marker must be flagged by exactly that
// rule, and nothing else in the package may fire. The package lives
// under testdata/ so ./... patterns (build, test, vet, CI) never see
// it; the corpus test loads it explicitly and diffs findings against
// the markers.
package violations

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/reclaim"
)

// VNode is the corpus node type; the arena/domain instantiations in
// VList make *VNode a "raw node pointer" in orcvet's model.
type VNode struct {
	key  uint64
	next atomic.Uint64
	link core.Atomic
}

// GlobalNode is the escape target of the package-level store fixture.
var GlobalNode *VNode

// VList is the corpus container: one shared head slot reclaimed either
// manually (s) or through the orc domain (d).
type VList struct {
	a     *arena.Arena[VNode]
	d     *core.Domain[VNode]
	s     reclaim.Scheme
	head  atomic.Uint64
	cache *VNode
}

// --- rule protect ----------------------------------------------------

// DerefRawLoad dereferences a raw shared load without protecting it.
func (l *VList) DerefRawLoad() uint64 {
	h := arena.Handle(l.head.Load())
	return l.a.Get(h).key // want:protect
}

// DerefAfterClearAll keeps using a handle after dropping every hazard.
func (l *VList) DerefAfterClearAll(tid int) uint64 {
	h := l.s.GetProtected(tid, 0, &l.head)
	l.s.ClearAll(tid)
	return l.a.Get(h).key // want:protect
}

// DerefAfterRelease uses a Ptr's handle after releasing it.
func (l *VList) DerefAfterRelease(tid int, at *core.Atomic) uint64 {
	var p core.Ptr
	l.d.Load(tid, at, &p)
	l.d.Release(tid, &p)
	return l.d.Get(p.H()).key // want:protect
}

// SelfLoad spells p = p->link as one Load: the fused sole-user Load
// drops p's protection of the node holding the link before reading it.
func (l *VList) SelfLoad(tid int, at *core.Atomic) uint64 {
	var p core.Ptr
	l.d.Load(tid, at, &p)
	l.d.Load(tid, &l.d.Get(p.H()).link, &p) // want:protect
	n := l.d.Get(p.H())
	l.d.Load(tid, &n.link, &p) // want:protect
	defer l.d.Release(tid, &p)
	return l.d.Get(p.H()).key
}

// RotateLoad is the sanctioned spelling: a different Ptr holds the
// container while the link is read, then SwapPtr advances.
func (l *VList) RotateLoad(tid int, at *core.Atomic) uint64 {
	var p, q core.Ptr
	l.d.Load(tid, at, &p)
	l.d.Load(tid, &l.d.Get(p.H()).link, &q)
	l.d.SwapPtr(tid, &p, &q)
	defer l.d.Release(tid, &p)
	defer l.d.Release(tid, &q)
	return l.d.Get(p.H()).key
}

// SwapThenLoad binds n through q, then swaps: n now lives in the object
// p holds, so loading its link into q is sanctioned and into p is the
// self-load.
func (l *VList) SwapThenLoad(tid int, at *core.Atomic) uint64 {
	var p, q core.Ptr
	l.d.Load(tid, at, &p)
	l.d.Load(tid, &l.d.Get(p.H()).link, &q)
	n := l.d.Get(q.H())
	l.d.SwapPtr(tid, &p, &q)
	l.d.Load(tid, &n.link, &q)
	l.d.Load(tid, &n.link, &p) // want:protect
	defer l.d.Release(tid, &p)
	defer l.d.Release(tid, &q)
	return l.d.Get(p.H()).key
}

// DerefAfterSwapRelease swaps a released Ptr into p: SwapPtr carries
// each Ptr's state to the other, so p is now the released one.
func (l *VList) DerefAfterSwapRelease(tid int, at *core.Atomic) uint64 {
	var p, q core.Ptr
	l.d.Load(tid, at, &p)
	l.d.Release(tid, &q)
	l.d.SwapPtr(tid, &p, &q)
	defer l.d.Release(tid, &q)
	return l.d.Get(p.H()).key // want:protect
}

// DerefPeekedLink dereferences a plainly peeked link: Atomic.Peek is a
// raw load like Raw, so only Domain.Peek may touch what it returns.
func (l *VList) DerefPeekedLink(at *core.Atomic) uint64 {
	return l.d.Get(at.Peek()).key // want:protect
}

// DerefPeekedNext validates a speculatively read node, then follows its
// link with Get: the validation covers the node's fields, not the
// successor they name.
func (l *VList) DerefPeekedNext(at *core.Atomic) uint64 {
	h := at.Peek()
	n, ok := l.d.Peek(h)
	if !ok {
		return 0
	}
	next := n.link.Peek()
	if !l.d.Unchanged(h) {
		return 0
	}
	return l.d.Get(next.Unmarked()).key // want:protect
}

// PeekWalk is the sanctioned speculative walk: Domain.Peek each node,
// read its fields with plain loads, keep them only once Unchanged
// validates, and hand the next link back to Domain.Peek.
func (l *VList) PeekWalk(at *core.Atomic, key uint64) (found, ok bool) {
	for h := at.Peek(); !h.IsNil(); {
		n, live := l.d.Peek(h)
		if !live {
			return false, false
		}
		k, next := n.key, n.link.Peek()
		if !l.d.Unchanged(h) {
			return false, false
		}
		if k >= key {
			return k == key && !next.Marked(), true
		}
		h = next.Unmarked()
	}
	return false, true
}

// deref is a package-local helper; its summary marks parameter h as
// requiring protection, extending the obligation to callers.
func (l *VList) deref(h arena.Handle) uint64 {
	return l.a.Get(h).key
}

// CallsDerefRaw passes an unprotected load to a dereferencing helper.
func (l *VList) CallsDerefRaw() uint64 {
	h := arena.Handle(l.head.Load())
	return l.deref(h) // want:protect
}

// --- rule retire -----------------------------------------------------

// RetireWithoutCAS retires a handle no CAS ever unlinked: another
// thread can still reach it through the shared slot.
func (l *VList) RetireWithoutCAS(tid int) {
	h := l.s.GetProtected(tid, 0, &l.head)
	l.s.Retire(tid, h) // want:retire
	l.s.ClearAll(tid)
}

// TBKPHelpRace reconstructs the shape of the PR-4 turnqueue helping
// races: the helper CASes the request link, retires the node, and then
// the stale helping path dereferences the handle it just retired.
func (l *VList) TBKPHelpRace(tid int) uint64 {
	h := l.s.GetProtected(tid, 0, &l.head)
	next := arena.Handle(l.a.Get(h).next.Load())
	if l.head.CompareAndSwap(uint64(h), uint64(next)) {
		l.s.Retire(tid, h)
	}
	return l.a.Get(h).key // want:retire
}

// --- rule escape -----------------------------------------------------

// CacheNodePointer stores a raw node pointer into a struct field.
func (l *VList) CacheNodePointer(tid int) {
	h := l.s.GetProtected(tid, 0, &l.head)
	n := l.a.Get(h)
	l.cache = n // want:escape
	l.s.ClearAll(tid)
}

// PublishNodePointer stores a raw node pointer into a package global.
func (l *VList) PublishNodePointer(tid int) {
	h := l.s.GetProtected(tid, 0, &l.head)
	n := l.a.Get(h)
	GlobalNode = n // want:escape
	l.s.ClearAll(tid)
}

// LeakToGoroutine captures a raw node pointer in a go-closure, which
// outlives the operation's protections by construction.
func (l *VList) LeakToGoroutine(tid int) {
	h := l.s.GetProtected(tid, 0, &l.head)
	n := l.a.Get(h)
	go func() {
		_ = n.key // want:escape
	}()
	l.s.ClearAll(tid)
}

// SendNodePointer sends a raw node pointer across a channel.
func (l *VList) SendNodePointer(tid int, ch chan *VNode) {
	h := l.s.GetProtected(tid, 0, &l.head)
	ch <- l.a.Get(h) // want:escape
	l.s.ClearAll(tid)
}

// CopyPtrByValue forks a Ptr's protection bookkeeping; CopyPtr is the
// sanctioned spelling.
func CopyPtrByValue(p core.Ptr) core.Ptr {
	q := p // want:escape
	return q
}

// ExportedPeek returns a raw node pointer from an exported function.
func (l *VList) ExportedPeek(tid int) *VNode {
	h := l.s.GetProtected(tid, 0, &l.head)
	defer l.s.ClearAll(tid)
	return l.a.Get(h) // want:escape
}

// --- rule unsafe -----------------------------------------------------

// UnsafeNodePointer launders a node pointer through unsafe.Pointer,
// dodging the arena's generation check.
func (l *VList) UnsafeNodePointer(tid int) unsafe.Pointer {
	h := l.s.GetProtected(tid, 0, &l.head)
	defer l.s.ClearAll(tid)
	return unsafe.Pointer(l.a.Get(h)) // want:unsafe
}

// HandleToUintptr converts a handle to uintptr.
func HandleToUintptr(h arena.Handle) uintptr {
	return uintptr(h) // want:unsafe
}
