package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
)

// ForEachLink enumerates the Atomic (orc_atomic) fields of a node. It is
// the Go stand-in for the destructor calls the C++ runtime makes on
// orc_atomic members when an object is deleted: Domain.deleteObj visits
// every link to decrement the referents' counters.
type ForEachLink[T any] func(obj *T, visit func(*Atomic))

// tlInfo is the per-thread block of Algorithm 3 (struct TLInfo): the
// hazardous-pointer row, the paired handover row, the usedHaz index
// refcounts, and the recursive-retire state.
type tlInfo struct {
	hp            []atomic.Uint64
	shadow        []uint64 // owner-written mirror of hp (protection fast path)
	handovers     []atomic.Uint64
	usedHaz       []int32
	retireStarted bool
	joined        bool  // owner-only: the domain's maxTids covers this thread
	tid           int32 // fits the padding: tlInfo stays 160 bytes
	recursive     []arena.Handle
	// Single-writer counters, bumped with inc and summed by readers.
	elides, retires, frees, peekFails atomic.Uint64
}

// inc bumps a counter only its owning thread writes: a plain load and
// store, no read-modify-write on a shared line.
func inc(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// noteElide counts one elided publication (read concurrently by
// Domain.Elisions).
func (t *tlInfo) noteElide() { inc(&t.elides) }

// Domain ties OrcGC to one arena of tracked objects: it owns the
// PassThePointerOrcGC state (Algorithm 3/5/6) for that object type. All
// objects of the domain are created with Make and reclaimed automatically
// once they have no hard links, no protected local references, and no
// global references. Hot paths write only the calling thread's tlInfo
// (and maxHPs or maxTids when the thread pushes a watermark).
type Domain[T any] struct {
	arena   *arena.Arena[T]
	links   ForEachLink[T]
	capHPs  int32
	maxHPs  atomic.Int64 // watermark over claimed hp indices (≥1: slot 0 is scratch)
	maxTids atomic.Int64 // watermark over tids that ever published a hazard
	tl      []*tlInfo    // one per tid: len(tl) is the tid capacity
}

// DomainConfig sizes a Domain.
type DomainConfig struct {
	MaxThreads int // capacity of the tid space (default 64)
	MaxHPs     int // hazardous-pointer slots per thread incl. scratch (default 72)
}

// NewDomain creates an OrcGC domain over a, with links enumerating each
// node's Atomic fields (may be nil for leaf objects with no links).
func NewDomain[T any](a *arena.Arena[T], links ForEachLink[T], cfg DomainConfig) *Domain[T] {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 64
	}
	if cfg.MaxHPs <= 0 {
		cfg.MaxHPs = 72
	}
	d := &Domain[T]{
		arena:  a,
		links:  links,
		capHPs: int32(cfg.MaxHPs),
		tl:     make([]*tlInfo, cfg.MaxThreads),
	}
	d.maxHPs.Store(1) // scratch slot 0 always scanned
	for i := range d.tl {
		d.tl[i] = &tlInfo{
			hp:        make([]atomic.Uint64, cfg.MaxHPs),
			shadow:    make([]uint64, cfg.MaxHPs),
			handovers: make([]atomic.Uint64, cfg.MaxHPs),
			usedHaz:   make([]int32, cfg.MaxHPs),
			tid:       int32(i),
		}
	}
	return d
}

// Arena exposes the domain's arena (stats, direct reads in tests).
func (d *Domain[T]) Arena() *arena.Arena[T] { return d.arena }

// pub publishes u in thread t's hp[idx] unless the slot already holds
// it. The shadow is the owner's record of what the slot publishes, so a
// match means the store — a seq-cst operation on a cache line every
// retire scan reads — can be elided without changing the published set:
// the slot has continuously protected u since the earlier publication
// (DESIGN.md §1.2). Reports whether it stored.
func (d *Domain[T]) pub(t *tlInfo, idx int32, u uint64) bool {
	if t.shadow[idx] == u {
		return false
	}
	if !t.joined {
		d.join(t)
	}
	t.shadow[idx] = u
	t.hp[idx].Store(u)
	return true
}

// join raises the tid watermark past thread t before its first hazard
// publication, so retire scans that stop at the watermark cover every
// row that ever published (DESIGN §4).
func (d *Domain[T]) join(t *tlInfo) {
	for {
		cur := d.maxTids.Load()
		if cur > int64(t.tid) || d.maxTids.CompareAndSwap(cur, int64(t.tid)+1) {
			break
		}
	}
	t.joined = true
}

// Threads reports the tid watermark: one past the highest tid that ever
// published a hazardous pointer in this domain. Retire scans stop there.
func (d *Domain[T]) Threads() int { return int(d.maxTids.Load()) }

// Get dereferences a protected handle.
func (d *Domain[T]) Get(h arena.Handle) *T { return d.arena.Get(h) }

// PeekAttempts is how many speculative walks a read-only operation tries
// before it falls back to its protected traversal; the fallback is what
// keeps the operation lock-free when writers keep recycling its nodes.
const PeekAttempts = 2

// Peek is the speculative read of a read-only operation (arena.TryGet):
// it dereferences h without any protection, reporting instead of
// faulting when h is already stale. Fields read through the result are
// worth nothing until Unchanged(h) confirms the object was not freed
// meanwhile; read them with plain loads (Atomic.Peek, PeekWord) from a
// //go:norace function. DESIGN §4 has the argument.
func (d *Domain[T]) Peek(h arena.Handle) (*T, bool) { return d.arena.TryGet(h) }

// Unchanged reports whether h still names a live object (arena.Valid):
// the validation that closes a speculative read. The arena bumps a
// slot's generation before it poisons the payload, so a true result
// means every field read since Peek(h) came from h's own lifetime.
func (d *Domain[T]) Unchanged(h arena.Handle) bool { return d.arena.Valid(h) }

// PeekFailed records one speculative walk of thread tid that failed
// validation and was abandoned; only the failure path calls it.
func (d *Domain[T]) PeekFailed(tid int) { inc(&d.tl[tid].peekFails) }

// PeekFailures reports how many speculative walks failed validation,
// summed over the threads.
func (d *Domain[T]) PeekFailures() uint64 {
	var n uint64
	for _, t := range d.tl {
		n += t.peekFails.Load()
	}
	return n
}

// Make is make_orc<T> (Algorithm 3 lines 31–36): allocate, initialize the
// _orc word to ORC_ZERO, run the constructor, protect the object in the
// scratch slot and bind it to p, marked fresh. The object has no hard
// links yet; it stays alive through p's protection and is reclaimed by
// clear if dropped without ever being linked.
func (d *Domain[T]) Make(tid int, init func(*T), p *Ptr) arena.Handle {
	h, obj := d.arena.AllocT(tid)
	d.arena.HdrA(h).Store(orcZero)
	if init != nil {
		init(obj)
	}
	d.pub(d.tl[tid], 0, uint64(h))
	d.assign(tid, p, h, 0, true)
	return h
}

// InitLink sets an Atomic field of an object under construction (the
// orc_atomic(T ptr) constructor, Algorithm 4 lines 53–56). target must be
// nil or protected by the calling thread.
func (d *Domain[T]) InitLink(tid int, a *Atomic, target arena.Handle) {
	d.incrementOrc(tid, target)
	a.v.Store(uint64(target))
}

// getNewIdx is Algorithm 6 lines 119–127: claim the lowest free hp index
// at or above start and push the global scan watermark.
func (d *Domain[T]) getNewIdx(tid int, start int32) int32 {
	t := d.tl[tid]
	if start < 1 {
		start = 1
	}
	for idx := start; idx < d.capHPs; idx++ {
		if t.usedHaz[idx] != 0 {
			continue
		}
		t.usedHaz[idx]++
		for {
			cur := d.maxHPs.Load()
			if cur > int64(idx) || d.maxHPs.CompareAndSwap(cur, int64(idx)+1) {
				break
			}
		}
		return idx
	}
	panic(fmt.Sprintf("core: thread %d exhausted %d hazard-pointer indices", tid, d.capHPs))
}

// usingIdx is Algorithm 6 lines 129–132: add a sharer to an index.
func (d *Domain[T]) usingIdx(tid int, idx int32) {
	if idx == 0 {
		return
	}
	d.tl[tid].usedHaz[idx]++
}

// clear is Algorithm 5 lines 80–90: drop one use of p's index and, when
// the object loses its last local reference, check whether it became
// unreachable (counter at ORC_ZERO) and retire it. Only an object from
// Make (p.fresh) is checked: any other reached ORC_ZERO through an
// increment, decrement or clearBitRetired whose thread already tried
// the BRETIRED CAS itself (DESIGN §4). Note the hazardous pointer
// itself is deliberately *not* nulled — Proposition 1 needs the object
// published while the BRETIRED CAS runs, and the stale publication is
// overwritten on the index's next use (the paper accepts the
// temporarily parked objects this can cause).
func (d *Domain[T]) clear(tid int, p *Ptr, reuse bool) {
	t, h, idx := d.tl[tid], p.h, p.idx
	if !reuse && idx != 0 {
		t.usedHaz[idx]--
		if t.usedHaz[idx] != 0 {
			return
		}
	}
	if !p.fresh || h.IsNil() {
		return
	}
	h = h.Unmarked()
	orc := d.arena.HdrA(h)
	lorc := orc.Load()
	if ocnt(lorc) == orcZero {
		if orc.CompareAndSwap(lorc, lorc+bretired) {
			d.retire(tid, h)
		}
	}
}

// Stats reports the domain's reclamation counters, summed over the
// threads; arena stats carry the live/high-water memory numbers.
func (d *Domain[T]) Stats() (retires, frees uint64) {
	for _, t := range d.tl {
		retires += t.retires.Load()
		frees += t.frees.Load()
	}
	return retires, frees
}

// Elisions reports how many hazardous-pointer publications the domain's
// protection fast path elided (slot already held the value).
func (d *Domain[T]) Elisions() uint64 {
	var n uint64
	for _, t := range d.tl {
		n += t.elides.Load()
	}
	return n
}

// FlushAll drains every thread's hazardous pointers and handover slots.
// Quiescent use only (benchmark teardown, leak accounting in tests):
// concurrent domain operations would race with it. It is also the one
// caller that retires and frees under other threads' tids, writing
// their single-writer counters; that is safe only because no owner is
// running.
//
// Draining loops to a fixed point: deleting a parked object decrements
// its children, and decrementOrc's Proposition-1 publication in hp[0]
// re-parks each dying child in the scratch handover slot — a long chain
// therefore surfaces one node per drain round (the paper's acknowledged
// "parked until the slot is reused" behaviour, compressed here into a
// loop instead of waiting for future operations).
func (d *Domain[T]) FlushAll() {
	clearRows := func() {
		for _, t := range d.tl {
			for i := int32(0); i < d.capHPs; i++ {
				t.hp[i].Store(0)
				t.shadow[i] = 0 // quiescent cross-thread write: keep the mirror true
				t.usedHaz[i] = 0
			}
		}
	}
	clearRows()
	for {
		drained := false
		for tid, t := range d.tl {
			for i := int32(0); i < d.capHPs; i++ {
				h := arena.Handle(t.handovers[i].Swap(0))
				if h.IsNil() {
					continue
				}
				drained = true
				// Retires during this drain republish only this
				// thread's scratch slot (decrementOrc's Proposition-1
				// store); drop it so the scan cannot re-park on it.
				d.pub(t, 0, 0)
				d.retire(tid, h)
				// Chain collapse: each delete re-parks its dying child
				// in this thread's scratch handover slot; drain it in
				// place so a chain costs one round, not one per node.
				for {
					h0 := arena.Handle(t.handovers[0].Swap(0))
					if h0.IsNil() {
						break
					}
					d.pub(t, 0, 0)
					d.retire(tid, h0)
				}
			}
		}
		if !drained {
			return
		}
	}
}
