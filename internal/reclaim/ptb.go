package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
)

// PTB is Herlihy–Luchangco–Moir pass-the-buck. Guards are the hazardous
// pointers; Liberate scans the values the caller wants freed and, for
// each value still guarded, hands the buck by exchanging the value into
// the guard's handoff box, adopting the displaced value into its working
// set. Values that survive the guard scan unguarded are freed; values
// the pass could not finish with stay in the caller's pending list for
// the next Liberate — this carrying of per-thread lists is what gives
// PTB its O(H·t²) bound, versus PTP's in-place forwarding.
//
// The original uses a double-word CAS on (value, version) handoff slots;
// here object identity is a 32-bit arena slot index, so a (index:32,
// version:32) pair fits one word and a plain exchange carries the full
// 64-bit handle (see DESIGN.md substitutions).
type PTB struct {
	base
	hp      *hpArrays
	boxes   [][]atomic.Uint64
	pending [][]arena.Handle // owner-only; RetireDepth reads the depth word
}

// newPTB builds a pass-the-buck instance; construct via New("ptb", …).
func newPTB(env Env, cfg Options) *PTB {
	p := &PTB{base: newBase("ptb", env, cfg)}
	p.hp = newHPArrays(p.tc, p.cfg.MaxHPs)
	p.boxes = make([][]atomic.Uint64, p.cfg.MaxThreads)
	p.pending = make([][]arena.Handle, p.cfg.MaxThreads)
	for i := range p.boxes {
		p.boxes[i] = make([]atomic.Uint64, p.cfg.MaxHPs+8)
	}
	return p
}

// GetProtected posts a guard for the value read from addr.
func (p *PTB) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return p.hp.getProtected(tid, idx, addr)
}

// Protect posts a guard for an already-pinned handle.
func (p *PTB) Protect(tid, idx int, v arena.Handle) { p.hp.publish(tid, idx, uint64(v.Unmarked())) }

// Clear drops the guard and adopts anything parked in its handoff box.
func (p *PTB) Clear(tid, idx int) {
	p.hp.clear(tid, idx)
	if p.boxes[tid][idx].Load() != 0 {
		if v := arena.Handle(p.boxes[tid][idx].Swap(0)); !v.IsNil() {
			p.pending[tid] = append(p.pending[tid], v)
			p.setDepth(tid, len(p.pending[tid]))
		}
	}
}

// ClearAll drops every guard of the thread.
func (p *PTB) ClearAll(tid int) {
	for i := 0; i < p.cfg.MaxHPs; i++ {
		p.Clear(tid, i)
	}
}

// Retire adds the value to the caller's set and runs Liberate.
func (p *PTB) Retire(tid int, v arena.Handle) {
	p.onRetire(tid, v)
	p.pending[tid] = append(p.pending[tid], v.Unmarked())
	p.liberate(tid)
	p.setDepth(tid, len(p.pending[tid]))
}

func (p *PTB) liberate(tid int) {
	list := p.pending[tid]
	p.pending[tid] = nil
	// Each processed element is either freed or parked in a box; parking
	// can displace an element back into the working set, so cap the work
	// per pass and carry the remainder.
	budget := len(list) + p.cfg.MaxThreads*p.cfg.MaxHPs
	for i := 0; i < len(list); i++ {
		if i >= budget {
			p.pending[tid] = append(p.pending[tid], list[i:]...)
			return
		}
		v := list[i]
		g, gi, guarded := p.findGuard(v)
		if !guarded {
			p.env.Free(tid, v)
			p.onFree(tid, v)
			continue
		}
		old := arena.Handle(p.boxes[g][gi].Swap(uint64(v)))
		if !old.IsNil() && old != v {
			list = append(list, old)
		}
	}
}

func (p *PTB) findGuard(v arena.Handle) (t, idx int, ok bool) {
	for t := 0; t < p.cfg.MaxThreads; t++ {
		for i := 0; i < p.cfg.MaxHPs; i++ {
			if p.hp.read(t, i) == uint64(v) {
				return t, i, true
			}
		}
	}
	return 0, 0, false
}

// Flush reruns Liberate on the pending list.
func (p *PTB) Flush(tid int) {
	if len(p.pending[tid]) > 0 {
		p.liberate(tid)
	}
	// Also drain this thread's own boxes at quiescence.
	for idx := 0; idx < p.cfg.MaxHPs; idx++ {
		if v := arena.Handle(p.boxes[tid][idx].Swap(0)); !v.IsNil() {
			p.pending[tid] = append(p.pending[tid], v)
		}
	}
	if len(p.pending[tid]) > 0 {
		p.liberate(tid)
	}
	p.setDepth(tid, len(p.pending[tid]))
}
