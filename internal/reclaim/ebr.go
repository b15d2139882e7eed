package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/rt"
)

// ebrCadence is EBR's reap period: the engine reaps after every 32nd
// retire on a thread.
const ebrCadence = 32

// ebrItem is a retired object with the epoch it was retired in.
type ebrItem struct {
	h     arena.Handle
	epoch uint64
}

func (it ebrItem) handle() arena.Handle { return it.h }

// EBR is classic three-epoch epoch-based reclamation (Fraser / RCU
// family). Protection is a per-operation epoch announcement — wait-free
// and cheap — but retire is blocking: a thread parked inside an
// operation stalls the epoch and unreclaimed memory is unbounded, which
// is exactly the Table 1 row the paper contrasts the lock-free schemes
// against.
//
// Each thread announces its epoch in a one-slot hpArrays (0 = quiescent;
// the global epoch starts at 2), whose owner-written shadow elides a
// re-announcement of the current epoch.
type EBR struct {
	engine[ebrItem] // the limbo lists
	global          atomic.Uint64
	reservations    *hpArrays
}

// newEBR builds an epoch-based-reclamation instance; construct via
// New("ebr", …).
func newEBR(env Env, cfg Options) *EBR {
	cfg.defaults()
	e := &EBR{}
	e.engine = newEngine[ebrItem]("ebr", env, cfg, fixed(ebrCadence), e)
	e.cadence = true
	e.reservations = newHPArrays(e.tc, 1)
	e.global.Store(2)
	return e
}

// BeginOp announces the thread is active in the current epoch. The
// announcement store is elided when the slot already publishes the
// current epoch (repeated BeginOp without an intervening EndOp) — the
// published reservation is identical either way. EndOp elides only when
// the slot already reads quiescent.
func (e *EBR) BeginOp(tid int) { e.reservations.publish(tid, 0, e.global.Load()) }

// EndOp marks the thread quiescent.
func (e *EBR) EndOp(tid int) { e.reservations.clear(tid, 0) }

// GetProtected needs no per-pointer work: the epoch announcement covers
// every object reachable during the operation. The torture injection
// point still fires here — a reader stalled inside an operation holds
// its epoch reservation, which is exactly EBR's unbounded worst case.
func (e *EBR) GetProtected(tid, _ int, addr *atomic.Uint64) arena.Handle {
	rt.Step(rt.SiteProtect, tid)
	return arena.Handle(addr.Load())
}

// Retire stamps the object with the current epoch and puts it on the
// thread's limbo list; every ebrCadence-th retire the engine reaps it,
// trying to advance the epoch first (snapshot). Protect, Clear and
// ClearAll stay no-ops under epochs.
func (e *EBR) Retire(tid int, v arena.Handle) {
	e.onRetire(tid, v)
	e.add(tid, ebrItem{h: v.Unmarked(), epoch: e.global.Load()})
}

// tryAdvance bumps the global epoch if every active thread has observed
// the current one. A single stalled reader blocks the bump — EBR's
// defining weakness.
func (e *EBR) tryAdvance() {
	cur := e.global.Load()
	for t := 0; t < e.cfg.MaxThreads; t++ {
		if r := e.reservations.read(t, 0); r != 0 && r < cur {
			return
		}
	}
	e.global.CompareAndSwap(cur, cur+1)
}

// snapshot tries to advance the epoch, then reads the epoch the reap
// frees against.
func (e *EBR) snapshot(sc *scanBufs) {
	e.tryAdvance()
	sc.epoch = e.global.Load()
}

// protected keeps limbo entries fewer than two epochs behind the global
// epoch: every thread active when they were retired has since passed
// through a quiescent announcement only once they are two behind.
func (e *EBR) protected(sc *scanBufs, it ebrItem) bool { return it.epoch+2 > sc.epoch }

// Flush attempts an extra advance, then reaps.
func (e *EBR) Flush(tid int) {
	e.tryAdvance()
	e.engine.Flush(tid)
}
