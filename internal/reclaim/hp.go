package reclaim

import (
	"slices"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/rt"
)

// hpArrays is the published hazard matrix every scheme with a
// published protection shares: one single-writer row per thread,
// readable by every scanning thread. Entries hold unmarked handles
// (HP, PTB, PTP), eras (HE; IBR's upper bound, one slot per thread) or
// epochs (EBR, one slot per thread); 0 means none.
//
// Each row carries a plain (non-atomic) shadow mirror written only by
// the owning thread. The shadow is what makes the protection fast path
// possible: before storing to the shared row — a seq-cst store Go
// compiles to XCHG on amd64, plus a potential remote invalidation of
// every scanning reader's cached copy — the owner checks the shadow and
// elides the store when the slot already holds the value. The elision
// is safe because the slot's published protection is exactly the value
// being republished: any scan concurrent with the elided call already
// sees the handle, and the caller's validating re-read of the source
// address is unaffected. See DESIGN.md §1.2.
type hpArrays struct {
	rows   [][]atomic.Uint64
	shadow [][]uint64       // owner-written mirror of rows
	tc     []threadCounters // the owning scheme's: elided publishes count there
	hps    int
}

func newHPArrays(tc []threadCounters, hps int) *hpArrays {
	threads := len(tc)
	a := &hpArrays{
		rows:   make([][]atomic.Uint64, threads),
		shadow: make([][]uint64, threads),
		tc:     tc,
		hps:    hps,
	}
	for i := range a.rows {
		// One backing array per thread keeps rows on separate cache
		// lines without explicit padding structs.
		a.rows[i] = make([]atomic.Uint64, hps+8)
		a.shadow[i] = make([]uint64, hps+8)
	}
	return a
}

func (a *hpArrays) publish(tid, idx int, u uint64) {
	if a.shadow[tid][idx] == u {
		// Elision fast path: the slot already publishes u. Torture
		// injection point inside the branch — a stall parked here must
		// still be protected by the untouched slot.
		inc(&a.tc[tid].elide)
		rt.Step(rt.SiteProtect, tid)
		return
	}
	a.store(tid, idx, u)
}

// store publishes u in the slot without the elision check.
func (a *hpArrays) store(tid, idx int, u uint64) {
	a.shadow[tid][idx] = u
	a.rows[tid][idx].Store(u)
}

func (a *hpArrays) read(tid, idx int) uint64 { return a.rows[tid][idx].Load() }

func (a *hpArrays) clear(tid, idx int) {
	if a.shadow[tid][idx] != 0 {
		a.store(tid, idx, 0)
	}
}

func (a *hpArrays) clearAll(tid int) {
	for i := 0; i < a.hps; i++ {
		a.clear(tid, i)
	}
}

// getProtected is the protection loop shared verbatim by HP, PTB and PTP
// (the paper notes the three schemes protect identically): re-publish
// until the address still holds the published value. The loop seeds its
// "published" value from the shadow, so a hop that lands on the handle
// the slot already protects — the common case when retrying a traversal
// or revisiting the same node — validates immediately with no store at
// all (the elision fast path).
func (a *hpArrays) getProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	sh := a.shadow[tid]
	published := sh[idx]
	stored := false
	for {
		v := arena.Handle(addr.Load())
		u := uint64(v.Unmarked())
		if u == published {
			if !stored {
				inc(&a.tc[tid].elide)
			}
			// Torture injection point: the caller's hazardous pointer is
			// published and validated, so a stall parked here pins the
			// object for as long as the hook blocks — on the elided path
			// the protection predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		a.rows[tid][idx].Store(u)
		sh[idx] = u
		published = u
		stored = true
	}
}

// protectEra is the protection loop HE and IBR share: publish the
// current era in slot idx until the clock is stable across the read of
// addr. The published era is read from the owner's shadow (no atomic
// load), and a call that finds the slot already holding the current era
// — the common case between clock ticks — stores nothing.
func (a *hpArrays) protectEra(tid, idx int, addr, clock *atomic.Uint64) arena.Handle {
	sh := a.shadow[tid]
	stored := false
	for {
		v := arena.Handle(addr.Load())
		era := clock.Load()
		if era == sh[idx] {
			if !stored {
				inc(&a.tc[tid].elide)
			}
			// Torture injection point: the era reservation is stable and
			// published; a stall here holds it across the hook — on the
			// elided path the reservation predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		a.store(tid, idx, era)
		stored = true
	}
}

// HP is Michael's hazard-pointers scheme: per-thread retired lists,
// amortized scans that free every retired object not currently
// published. Bound on unreclaimed objects: O(H·t²).
type HP struct {
	engine[hpItem]
	hp *hpArrays
}

// hpItem is a retired handle on HP's list.
type hpItem arena.Handle

func (it hpItem) handle() arena.Handle { return arena.Handle(it) }

// newHP builds a hazard-pointers instance; construct via New("hp", …).
// A zero lim selects the classic base threshold R = 2·H·t, floored at
// 64, with adaptive clamps.
func newHP(env Env, cfg Options, lim limits) *HP {
	cfg.defaults()
	if lim.base == 0 {
		lim = adaptive(max(2*cfg.MaxHPs*cfg.MaxThreads, 64))
	}
	h := &HP{}
	h.engine = newEngine[hpItem]("hp", env, cfg, lim, h)
	h.hp = newHPArrays(h.tc, cfg.MaxHPs)
	return h
}

// GetProtected implements the standard hazard-pointer protection loop.
func (h *HP) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return h.hp.getProtected(tid, idx, addr)
}

// Protect publishes an already-pinned handle.
func (h *HP) Protect(tid, idx int, v arena.Handle) { h.hp.publish(tid, idx, uint64(v.Unmarked())) }

// Clear clears one slot.
func (h *HP) Clear(tid, idx int) { h.hp.clear(tid, idx) }

// ClearAll clears the thread's row.
func (h *HP) ClearAll(tid int) { h.hp.clearAll(tid) }

// Retire puts the object on the thread's retired list.
func (h *HP) Retire(tid int, v arena.Handle) {
	h.onRetire(tid, v)
	h.add(tid, hpItem(v.Unmarked()))
}

func (h *HP) snapshot(sc *scanBufs) { sc.published(h.hp) }

func (h *HP) protected(sc *scanBufs, it hpItem) bool {
	_, found := slices.BinarySearch(sc.words, uint64(it))
	return found
}
