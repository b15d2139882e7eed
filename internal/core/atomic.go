package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/rt"
)

// Atomic is the Go rendering of the paper's orc_atomic<T*> (Algorithm 4):
// a shared hard link between tracked objects. Every mutation goes through
// Domain methods so the referents' _orc counters are maintained; the zero
// value is a nil link. Nodes embed one Atomic per shared pointer field.
type Atomic struct {
	v atomic.Uint64
}

// Raw returns the current handle without protecting it. Safe only for
// tag-bit inspection or comparison against already-protected handles,
// never for dereferencing.
func (a *Atomic) Raw() arena.Handle { return arena.Handle(a.v.Load()) }

// Peek is Raw for a speculative walk: a plain load of a link inside a
// node the caller holds no protection for. Like Raw, the result is never
// dereferenced directly; it is the next handle to Domain.Peek, and it
// counts only once the containing node passes Domain.Unchanged.
//
//go:norace
func (a *Atomic) Peek() arena.Handle { return arena.Handle(PeekWord(&a.v)) }

// PeekWord is the plain load behind Atomic.Peek, for a payload word of a
// node read speculatively. It is a plain load on purpose: the arena
// poisons a freed slot with plain stores, and the race detector reports
// a sync/atomic load against them even from a //go:norace function. The
// value means something only once the node's generation validates
// (DESIGN §4, "Read-only operations validate instead of publish").
//
//go:norace
func PeekWord(w *atomic.Uint64) uint64 { return *(*uint64)(unsafe.Pointer(w)) }

// incrementOrc is Algorithm 4 lines 38–43. Precondition (Proposition 1):
// the caller already holds h published in some hazardous pointer (it came
// from a live Ptr or from Make).
func (d *Domain[T]) incrementOrc(tid int, h arena.Handle) {
	if h.IsNil() {
		return
	}
	h = h.Unmarked()
	orc := d.arena.HdrA(h)
	lorc := orc.Add(seqUnit + 1)
	if ocnt(lorc) != orcZero {
		return
	}
	// The increment landed the counter exactly back at zero (a racing
	// unlink got ahead of us): this thread saw it last, so it retires.
	if orc.CompareAndSwap(lorc, lorc+bretired) {
		d.retire(tid, h)
	}
}

// decrementOrc is Algorithm 4 lines 45–51. The object may not be
// protected by the caller (e.g. the displaced value of a store), so per
// Proposition 1 it is published in the scratch hazardous pointer hp[0]
// before the counter moves.
func (d *Domain[T]) decrementOrc(tid int, h arena.Handle) {
	if h.IsNil() {
		return
	}
	h = h.Unmarked()
	if t := d.tl[tid]; !d.pub(t, 0, uint64(h)) {
		// Proposition 1 is satisfied by the existing publication: the
		// scratch slot has held h since an earlier seq-cst store.
		t.noteElide()
	}
	orc := d.arena.HdrA(h)
	lorc := orc.Add(seqUnit - 1)
	if ocnt(lorc) != orcZero {
		return
	}
	if orc.CompareAndSwap(lorc, lorc+bretired) {
		d.retire(tid, h)
	}
}

// Store is orc_atomic::store (Algorithm 4 lines 63–67): increment the new
// referent, exchange, decrement the displaced one. h must be nil or
// protected by a live Ptr of the calling thread.
func (d *Domain[T]) Store(tid int, a *Atomic, h arena.Handle) {
	d.incrementOrc(tid, h)
	old := arena.Handle(a.v.Swap(uint64(h)))
	d.decrementOrc(tid, old)
}

// CAS is orc_atomic::compare_exchange_strong (Algorithm 4 lines 69–74).
// The counter updates happen only after the CAS succeeds — the paper
// orders the increment after the instruction to avoid contention on _orc
// for failing CASes, which is why the counter can transiently go
// negative. new must be nil or protected by the calling thread; old and
// new may carry tag bits, which participate in the comparison bitwise.
func (d *Domain[T]) CAS(tid int, a *Atomic, old, new arena.Handle) bool {
	if !a.v.CompareAndSwap(uint64(old), uint64(new)) {
		return false
	}
	d.incrementOrc(tid, new)
	d.decrementOrc(tid, old)
	return true
}

// Exchange atomically replaces the link and returns the previous handle,
// maintaining both counters. The returned handle is protected in the
// scratch slot (decrementOrc published it); callers wanting to keep it
// must move it into a Ptr immediately via AdoptScratch.
func (d *Domain[T]) Exchange(tid int, a *Atomic, h arena.Handle) arena.Handle {
	d.incrementOrc(tid, h)
	old := arena.Handle(a.v.Swap(uint64(h)))
	d.decrementOrc(tid, old)
	return old
}

// Load is orc_atomic::load (Algorithm 4 lines 76–79) fused with the
// orc_ptr assignment the C++ caller performs on the returned temporary
// (`p = a.load()`): the value is published straight into p's own slot,
// never the scratch slot. A sole-user p keeps its index, and the object
// it held is checked by clear while its publication is still in place
// (Proposition 1); an empty p, or one sharing its index after CopyPtr,
// drops that use (the sharer keeps the old object protected, so nothing
// can retire) and claims the lowest free index. Either way the load is
// one fresh publish-validate loop — the argument that makes the scratch
// slot safe — so no protection moves. The returned handle keeps its tag
// bits.
//
// Precondition: a must not live inside an object that only p protects
// (`d.Load(tid, &d.Get(p.H()).next, &p)`): the sole-user path drops that
// protection before a is read. Load into a different Ptr and SwapPtr.
func (d *Domain[T]) Load(tid int, a *Atomic, p *Ptr) arena.Handle {
	if p.idx != 0 && d.tl[tid].usedHaz[p.idx] == 1 {
		d.clear(tid, p, true)
	} else {
		d.SetNil(tid, p)
		p.idx = d.getNewIdx(tid, 1)
	}
	p.fresh = false
	p.h = d.getProtected(tid, p.idx, a)
	return p.h
}

// LoadScratch protects the link's current value in the scratch slot and
// returns it without binding it to a Ptr — the equivalent of using the
// temporary orc_ptr returned by load() only for a comparison (e.g.
// `node != tail.load()` in Algorithm 1). The protection lasts until the
// scratch slot is next reused.
func (d *Domain[T]) LoadScratch(tid int, a *Atomic) arena.Handle {
	return d.getProtected(tid, 0, a)
}

// PublishWithSwap selects how hazardous pointers are published: false
// uses an atomic store, true an atomic exchange. The paper attributes
// its Intel-vs-AMD gap to exactly this instruction choice (§5: replacing
// the exchange with an mfence-backed store made AMD behave like Intel),
// so the cross-machine figures become an ablation over this knob here.
// Flip only while the domain is quiescent.
var PublishWithSwap atomic.Bool

// getProtected is the PTP/HP publication loop over an orc link,
// publishing the unmarked handle at hp[tid][idx]. The loop seeds its
// published value from the slot's shadow: when the link still holds
// what the slot already protects — the common case when re-reading a
// link just traversed — the call validates immediately with no store
// (the protection fast path). The elision is safe because the slot has
// continuously published the value since an earlier seq-cst store, so
// every retire scan ordered after that store sees it; the validating
// re-read of the link is unchanged.
func (d *Domain[T]) getProtected(tid int, idx int32, a *Atomic) arena.Handle {
	t := d.tl[tid]
	swap := PublishWithSwap.Load()
	published := t.shadow[idx]
	stored := false
	for {
		v := arena.Handle(a.v.Load())
		u := uint64(v.Unmarked())
		if u == published {
			if !stored {
				t.noteElide()
			}
			// Torture injection point: hp[tid][idx] is published and
			// validated, so a stall parked here pins the object (and,
			// transitively, whatever hands over to this slot) — on the
			// elided path the publication predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		if !t.joined {
			d.join(t)
		}
		if swap {
			t.hp[idx].Swap(u)
		} else {
			t.hp[idx].Store(u)
		}
		t.shadow[idx] = u
		published = u
		stored = true
	}
}
