package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/rt"
)

// IBR is two-generation interval-based reclamation (2GEIBR, Wen et al.,
// PPoPP '18) — the IBR variant the paper singles out as lock-free with
// bounded memory. Each thread reserves an era *interval* [lower, upper]:
// lower is pinned at operation start, upper is ratcheted forward by the
// HE-style protection loop. A retired object is freed once its
// [birth, retire] interval intersects no thread's reservation. The
// interval reservation is what inflates the bound past HE's (the paper's
// related-work discussion of Hyaline/IBR).
//
// The upper bound is published through a one-slot hpArrays, so the
// ratchet compares against its owner-written shadow without an atomic
// load and elides the store while the era clock is unchanged — between
// clock ticks (one per 16 allocations) every hop takes the elided path
// (DESIGN.md §1.2).
type IBR struct {
	engine[heItem]
	clock  atomic.Uint64
	lower  []rt.PaddedUint64 // 0 = inactive
	upper  *hpArrays         // one slot per thread
	allocs atomic.Uint64
}

// newIBR builds a 2GEIBR instance; construct via New("ibr", …). A zero
// lim selects the base threshold H·t, floored at 64, with adaptive
// clamps.
func newIBR(env Env, cfg Options, lim limits) *IBR {
	cfg.defaults()
	if lim.base == 0 {
		lim = adaptive(max(cfg.MaxHPs*cfg.MaxThreads, 64))
	}
	i := &IBR{lower: make([]rt.PaddedUint64, cfg.MaxThreads)}
	i.engine = newEngine[heItem]("ibr", env, cfg, lim, i)
	i.upper = newHPArrays(i.tc, 1)
	i.clock.Store(1)
	return i
}

// BeginOp pins the reservation interval at the current era.
func (i *IBR) BeginOp(tid int) {
	e := i.clock.Load()
	i.lower[tid].Store(e)
	i.upper.store(tid, 0, e)
}

// EndOp drops the reservation.
func (i *IBR) EndOp(tid int) {
	i.lower[tid].Store(0)
	i.upper.clear(tid, 0)
}

// OnAlloc stamps the birth era and advances the era clock every few
// allocations (IBR ticks on allocation, unlike HE's tick on retire).
func (i *IBR) OnAlloc(v arena.Handle) {
	birth, _ := i.env.Hdr(v)
	birth.Store(i.clock.Load())
	if i.allocs.Add(1)%16 == 0 {
		i.clock.Add(1)
	}
}

// GetProtected ratchets the upper reservation until the era is stable
// across the read; while the clock is unchanged the call stores nothing.
func (i *IBR) GetProtected(tid, _ int, addr *atomic.Uint64) arena.Handle {
	return i.upper.protectEra(tid, 0, addr, &i.clock)
}

// Protect ratchets the upper reservation to the current era, eliding
// the store while the published bound already holds it (the clock only
// moves forward, so the bound never exceeds it).
func (i *IBR) Protect(tid, _ int, _ arena.Handle) { i.upper.publish(tid, 0, i.clock.Load()) }

// Retire stamps the retire era and puts the object on the thread's
// retired list. Clear and ClearAll stay no-ops: intervals are
// per-thread, not per-slot, and EndOp drops the reservation.
func (i *IBR) Retire(tid int, v arena.Handle) {
	i.onRetire(tid, v)
	i.add(tid, eraItem(i.env, v.Unmarked(), i.clock.Load()))
}

func (i *IBR) snapshot(sc *scanBufs) { sc.intervals(i.lower, i.upper) }

func (i *IBR) protected(sc *scanBufs, it heItem) bool {
	return sc.intervalReserved(it.birth, it.retire)
}
