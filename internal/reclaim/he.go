package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
)

// HE is hazard eras (Ramalhete–Correia, SPAA '17): each object carries a
// birth era and a retire era in its two header words; readers publish
// the era in which they are traversing instead of individual pointers. A
// retired object may be freed once no published era intersects its
// lifetime interval. Lock-free protect, wait-free retire, bound
// O(#L·H·t²) — looser than the pointer-based schemes, cheaper protects.
//
// The published eras live in an hpArrays, so Protect and GetProtected
// consult its owner-written shadow and elide the store when the slot
// already publishes the current era — the common case between clock
// ticks, since the era clock only advances on retire. The era
// reservation the slot holds is unchanged by the elided call, so every
// concurrent scan still observes it (DESIGN.md §1.2).
type HE struct {
	engine[heItem]
	clock atomic.Uint64
	eras  *hpArrays
}

// heItem is a retired object with its lifetime interval (HE and IBR).
type heItem struct {
	h      arena.Handle
	birth  uint64
	retire uint64
}

func (it heItem) handle() arena.Handle { return it.h }

// eraItem stamps retire era e into v's header and returns v's list item,
// with the birth era OnAlloc stamped (HE and IBR).
func eraItem(env Env, v arena.Handle, e uint64) heItem {
	birth, retire := env.Hdr(v)
	retire.Store(e)
	return heItem{h: v, birth: birth.Load(), retire: e}
}

// newHE builds a hazard-eras instance; construct via New("he", …). A
// zero lim selects the base threshold H·t, floored at 64, with adaptive
// clamps.
func newHE(env Env, cfg Options, lim limits) *HE {
	cfg.defaults()
	if lim.base == 0 {
		lim = adaptive(max(cfg.MaxHPs*cfg.MaxThreads, 64))
	}
	h := &HE{}
	h.engine = newEngine[heItem]("he", env, cfg, lim, h)
	h.eras = newHPArrays(h.tc, cfg.MaxHPs)
	h.clock.Store(1)
	return h
}

// EndOp clears all published eras of the thread.
func (h *HE) EndOp(tid int) { h.ClearAll(tid) }

// OnAlloc stamps the object's birth era into header word A.
func (h *HE) OnAlloc(v arena.Handle) {
	birth, _ := h.env.Hdr(v)
	birth.Store(h.clock.Load())
}

// GetProtected publishes the current era until the era is stable across
// the read of addr — the HE protection loop.
func (h *HE) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return h.eras.protectEra(tid, idx, addr, &h.clock)
}

// Protect publishes the current era in the slot, eliding the store when
// the slot already holds it.
func (h *HE) Protect(tid, idx int, _ arena.Handle) { h.eras.publish(tid, idx, h.clock.Load()) }

// Clear resets one era slot.
func (h *HE) Clear(tid, idx int) { h.eras.clear(tid, idx) }

// ClearAll resets every era slot of the thread.
func (h *HE) ClearAll(tid int) { h.eras.clearAll(tid) }

// Retire stamps the retire era, puts the object on the thread's retired
// list and bumps the era clock.
func (h *HE) Retire(tid int, v arena.Handle) {
	h.onRetire(tid, v)
	h.add(tid, eraItem(h.env, v.Unmarked(), h.clock.Load()))
	h.clock.Add(1)
}

func (h *HE) snapshot(sc *scanBufs) { sc.published(h.eras) }

func (h *HE) protected(sc *scanBufs, it heItem) bool {
	return eraReserved(sc.words, it.birth, it.retire)
}
