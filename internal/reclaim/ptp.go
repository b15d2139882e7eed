package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
)

// PTP is the paper's pass-the-pointer scheme (§3.1, Algorithm 2): the
// protection loop of HP/PTB combined with a retire that never builds a
// thread-local retired list. Instead, retire scans the published
// hazardous pointers and, on a match, *exchanges* the object into the
// handover slot paired with that hazardous pointer, adopting whatever
// pointer the exchange displaced and continuing the scan further down.
// The thread that clears a hazardous pointer drains its handover slot.
//
// At any time at most one object per (thread, hp-index) pair sits in the
// handover matrix and each scanning thread carries at most one object,
// so retired-but-undeleted objects number at most t×(H+1) — the linear
// bound of the paper's Table 1.
type PTP struct {
	counters
	env       Env
	cfg       Options
	hp        *hpArrays
	handovers [][]atomic.Uint64

	// DrainOnClear enables Algorithm 2 lines 15–19: Clear also drains
	// the paired handover slot. The paper marks those lines optional —
	// without them objects can sit parked until the slot's next use,
	// affecting neither correctness nor the bound. Default true; flip
	// only before the scheme is shared (ablation benchmarks use this).
	DrainOnClear bool
}

func init() {
	Register(Registration{
		Name:  "ptp",
		Rank:  3,
		Build: func(env Env, opts Options) Scheme { return newPTP(env, opts) },
	})
}

// newPTP builds a pass-the-pointer instance; construct via New("ptp", …).
func newPTP(env Env, cfg Options) *PTP {
	cfg.defaults()
	p := &PTP{
		env:          env,
		cfg:          cfg,
		hp:           newHPArrays(cfg.MaxThreads, cfg.MaxHPs),
		handovers:    make([][]atomic.Uint64, cfg.MaxThreads),
		DrainOnClear: true,
	}
	for i := range p.handovers {
		p.handovers[i] = make([]atomic.Uint64, cfg.MaxHPs+8)
	}
	return p
}

// Name returns "ptp".
func (*PTP) Name() string { return "ptp" }

// BeginOp is a no-op for PTP.
func (*PTP) BeginOp(int) {}

// EndOp is a no-op for PTP.
func (*PTP) EndOp(int) {}

// GetProtected implements Algorithm 2 lines 4–11 (identical to HP/PTB).
func (p *PTP) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return p.hp.getProtected(tid, idx, addr)
}

// Protect publishes an already-pinned handle.
func (p *PTP) Protect(tid, idx int, v arena.Handle) { p.hp.publish(tid, idx, v) }

// Clear implements Algorithm 2 lines 13–20: clear the hazardous pointer,
// then drain the paired handover slot, taking over the responsibility to
// delete whatever object was parked there.
func (p *PTP) Clear(tid, idx int) {
	p.hp.clear(tid, idx)
	if !p.DrainOnClear {
		return
	}
	if p.handovers[tid][idx].Load() != 0 {
		if v := arena.Handle(p.handovers[tid][idx].Swap(0)); !v.IsNil() {
			p.handoverOrDelete(tid, v, tid)
		}
	}
}

// ClearAll clears and drains every slot of the thread.
func (p *PTP) ClearAll(tid int) {
	for i := 0; i < p.cfg.MaxHPs; i++ {
		p.Clear(tid, i)
	}
}

// OnAlloc is a no-op for PTP.
func (*PTP) OnAlloc(arena.Handle) {}

// Retire implements Algorithm 2 line 22.
func (p *PTP) Retire(tid int, v arena.Handle) {
	p.onRetire(tid, v)
	p.handoverOrDelete(tid, v.Unmarked(), 0)
}

// handoverOrDelete is Algorithm 2 lines 24–37: push the pointer forward
// through the handover matrix until it either displaces nothing (parked)
// or survives the whole scan unprotected (deleted). tid is the calling
// thread (for the allocator's free path); start is the thread row the
// scan begins at.
func (p *PTP) handoverOrDelete(tid int, ptr arena.Handle, start int) {
	for it := start; it < p.cfg.MaxThreads; it++ {
		for idx := 0; idx < p.cfg.MaxHPs; {
			if p.hp.read(it, idx) == ptr {
				ptr = arena.Handle(p.handovers[it][idx].Swap(uint64(ptr)))
				if ptr.IsNil() {
					return
				}
				// The displaced pointer may itself be protected by
				// this very slot; re-check before moving on.
				if p.hp.read(it, idx) == ptr {
					continue
				}
			}
			idx++
		}
	}
	p.env.Free(tid, ptr)
	p.onFree(tid, ptr)
}

// RetireDepth reports how many objects are parked in tid's handover
// slots (PTP keeps no thread-local retired list; parked objects are its
// only deferred state).
func (p *PTP) RetireDepth(tid int) int {
	n := 0
	for idx := 0; idx < p.cfg.MaxHPs; idx++ {
		if p.handovers[tid][idx].Load() != 0 {
			n++
		}
	}
	return n
}

// Flush drains the thread's own handover slots.
func (p *PTP) Flush(tid int) {
	for idx := 0; idx < p.cfg.MaxHPs; idx++ {
		if v := arena.Handle(p.handovers[tid][idx].Swap(0)); !v.IsNil() {
			p.handoverOrDelete(tid, v, 0)
		}
	}
}

// ScanStats reports the hazardous-pointer matrix's protection elisions
// (PTP has no scan engine; only the Elisions field is meaningful).
func (p *PTP) ScanStats() ScanStats { return ScanStats{Elisions: p.hp.elisions()} }

// Stats reports counters.
func (p *PTP) Stats() Stats { return p.snapshot() }
