package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/rt"
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
//
// MaxRetiredNotFreed is exact here, not a sum of per-thread peaks: the
// t(H+1) checks need the true domain-wide peak, so PTP alone keeps one
// shared pending count and its high-water mark.
type PTP struct {
	base
	hp        *hpArrays
	handovers [][]atomic.Uint64

	// Every retire and free writes these; the padding keeps them off the
	// line of the fields every Clear and GetProtected reads.
	_                [rt.CacheLine]byte
	pending, maxPend atomic.Int64
}

// newPTP builds a pass-the-pointer instance; construct via New("ptp", …).
func newPTP(env Env, cfg Options) *PTP {
	p := &PTP{base: newBase("ptp", env, cfg)}
	p.hp = newHPArrays(p.tc, p.cfg.MaxHPs)
	p.handovers = make([][]atomic.Uint64, p.cfg.MaxThreads)
	for i := range p.handovers {
		p.handovers[i] = make([]atomic.Uint64, p.cfg.MaxHPs+8)
	}
	return p
}

// GetProtected implements Algorithm 2 lines 4–11 (identical to HP/PTB).
func (p *PTP) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return p.hp.getProtected(tid, idx, addr)
}

// Protect publishes an already-pinned handle.
func (p *PTP) Protect(tid, idx int, v arena.Handle) { p.hp.publish(tid, idx, uint64(v.Unmarked())) }

// Clear implements Algorithm 2 lines 13–20: clear the hazardous pointer,
// then drain the paired handover slot, taking over the responsibility to
// delete whatever object was parked there.
func (p *PTP) Clear(tid, idx int) {
	p.hp.clear(tid, idx)
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

// Retire implements Algorithm 2 line 22.
func (p *PTP) Retire(tid int, v arena.Handle) {
	p.onRetire(tid, v)
	n := p.pending.Add(1)
	for {
		m := p.maxPend.Load()
		if n <= m || p.maxPend.CompareAndSwap(m, n) {
			break
		}
	}
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
			if p.hp.read(it, idx) == uint64(ptr) {
				ptr = arena.Handle(p.handovers[it][idx].Swap(uint64(ptr)))
				if ptr.IsNil() {
					return
				}
				// The displaced pointer may itself be protected by
				// this very slot; re-check before moving on.
				if p.hp.read(it, idx) == uint64(ptr) {
					continue
				}
			}
			idx++
		}
	}
	p.env.Free(tid, ptr)
	p.pending.Add(-1)
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

// Stats reports the per-thread counters with the exact peak.
func (p *PTP) Stats() Stats {
	s := p.base.Stats()
	s.MaxRetiredNotFreed = p.maxPend.Load()
	return s
}
