package core

import (
	"repro/internal/arena"
	"repro/internal/rt"
)

// Ptr is the paper's orc_ptr<T*> (Algorithm 7): a local reference to a
// tracked object, pinned through the hazardous-pointer row of its thread.
// While a Ptr holds an object, OrcGC will not deallocate it.
//
// C++ manages orc_ptr lifetime with constructors, assignment operators
// and destructors; in Go the same operations are explicit Domain calls:
//
//	var p core.Ptr            // orc_ptr<Node*> p;        (zero value)
//	d.Load(tid, &n.next, &p)  // p = n->next.load();
//	d.CopyPtr(tid, &q, &p)    // q = p;
//	d.SwapPtr(tid, &q, &p)    // std::swap(q, p);
//	d.Release(tid, &p)        // ~orc_ptr (end of scope)
//
// A Ptr publishes its object in the slot at its index, and Load
// publishes there directly: a sole-user Ptr keeps its index, an empty
// Ptr or one sharing its index (after CopyPtr) claims a free one. Load's
// link must not live inside an object that only the destination Ptr
// protects: `cur = cur->next` is spelled as a Load into next followed by
// SwapPtr(cur, next).
//
// A Ptr belongs to the goroutine (tid) that filled it and must be
// Released by the same tid exactly once per fill chain; Release is
// idempotent on an empty Ptr.
//
// fresh marks an object from Make (or a CopyPtr of such a Ptr), whose
// counter may never have moved; only such an object needs the ORC_ZERO
// check when its last local reference goes (see clear). It sits in the
// padding after idx, so a Ptr stays 16 bytes.
type Ptr struct {
	h     arena.Handle
	idx   int32 // 0 = unattached (no claimed index); valid indices are ≥ 1
	fresh bool
}

// H returns the handle held by p (tag bits preserved).
func (p *Ptr) H() arena.Handle { return p.h }

// IsNil reports whether p references no object.
func (p *Ptr) IsNil() bool { return p.h.IsNil() }

// Unmark strips the tag bits from the held handle. The protection always
// covers the unmarked referent, so this only changes what H() reports —
// list traversals use it when adopting a possibly-marked successor link
// as the new current node.
func (p *Ptr) Unmark() { p.h = p.h.Unmarked() }

// assign implements the orc_ptr assignment operator (Algorithm 7 lines
// 182–194) of `*p = other`, where other is (h, srcIdx, fresh). The rule keeps
// protections moving only toward higher indices — the same direction the
// retire scan walks — so a protection can never hop behind the scanner:
//
//   - other sits at a lower index (always true for scratch loads —
//     Make and AdoptScratch):
//     reuse p's index if p is its sole user, else claim a fresh index
//     above other's, and publish there while other's slot still covers
//     the object.
//   - other sits at a higher index: share it (bump usedHaz).
func (d *Domain[T]) assign(tid int, p *Ptr, h arena.Handle, srcIdx int32, fresh bool) {
	t := d.tl[tid]
	if p.idx == 0 {
		// Unattached Ptr: first fill.
		if srcIdx == 0 {
			p.idx = d.getNewIdx(tid, 1)
			if !d.pub(t, p.idx, uint64(h.Unmarked())) {
				// Elision fast path: the claimed slot already publishes h
				// (clear deliberately leaves stale publications behind).
				t.noteElide()
				rt.Step(rt.SiteProtect, tid)
			}
		} else {
			d.usingIdx(tid, srcIdx)
			p.idx = srcIdx
		}
		p.h, p.fresh = h, fresh
		return
	}
	if srcIdx < p.idx {
		reuse := t.usedHaz[p.idx] == 1
		d.clear(tid, p, reuse)
		if !reuse {
			p.idx = d.getNewIdx(tid, srcIdx+1)
		}
		if !d.pub(t, p.idx, uint64(h.Unmarked())) {
			// Elision fast path: republishing the handle the reused slot
			// already protects (e.g. `cur = cur->next` loops that land
			// back on the same node, or retry paths).
			t.noteElide()
			rt.Step(rt.SiteProtect, tid)
		}
	} else {
		d.clear(tid, p, false)
		d.usingIdx(tid, srcIdx)
		p.idx = srcIdx
	}
	p.h, p.fresh = h, fresh
}

// CopyPtr is `*dst = *src` between two named orc_ptrs.
func (d *Domain[T]) CopyPtr(tid int, dst, src *Ptr) {
	d.assign(tid, dst, src.h, src.idx, src.fresh)
}

// SwapPtr exchanges the whole state (handle, index, fresh) of two Ptrs
// of thread tid.
// No slot is written and no usedHaz count changes: each object stays
// published exactly where it was, only the Ptr naming the slot differs.
// Traversals rotate prev/cur/next with it instead of CopyPtr so every
// Ptr keeps a private index and the next Load into it takes the fused
// sole-user path.
func (d *Domain[T]) SwapPtr(tid int, a, b *Ptr) {
	*a, *b = *b, *a
}

// AdoptScratch binds the handle currently protected in the scratch slot
// (from LoadScratch or Exchange) to p. h must be the value those calls
// returned, with the scratch protection still intact.
func (d *Domain[T]) AdoptScratch(tid int, p *Ptr, h arena.Handle) {
	d.assign(tid, p, h, 0, false)
}

// SetNil empties p, dropping its protection (assigning nullptr).
func (d *Domain[T]) SetNil(tid int, p *Ptr) {
	if p.idx != 0 {
		d.clear(tid, p, false)
	}
	*p = Ptr{}
}

// Release is the orc_ptr destructor (Algorithm 7 line 169): drop the
// local reference; if the object came from Make, has no hard links and
// this was its last protection use of the index, it is retired.
func (d *Domain[T]) Release(tid int, p *Ptr) { d.SetNil(tid, p) }
