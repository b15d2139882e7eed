package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/rt"
)

const ebrIdle = ^uint64(0)

type ebrItem struct {
	h     arena.Handle
	epoch uint64
}

// EBR is classic three-epoch epoch-based reclamation (Fraser / RCU
// family). Protection is a per-operation epoch announcement — wait-free
// and cheap — but retire is blocking: a thread parked inside an
// operation stalls the epoch and unreclaimed memory is unbounded, which
// is exactly the Table 1 row the paper contrasts the lock-free schemes
// against.
type EBR struct {
	counters
	env Env
	cfg Options

	global       atomic.Uint64
	reservations []rt.PaddedUint64
	shadow       []padWord // owner-written mirror of reservations
	elide        []rt.PaddedUint64
	limbo        [][]ebrItem
	ops          []int // per-thread retire counter for amortized advance
}

func init() {
	Register(Registration{
		Name:  "ebr",
		Rank:  4,
		Build: func(env Env, opts Options) Scheme { return newEBR(env, opts) },
	})
}

// newEBR builds an epoch-based-reclamation instance; construct via
// New("ebr", …).
func newEBR(env Env, cfg Options) *EBR {
	cfg.defaults()
	e := &EBR{
		env:          env,
		cfg:          cfg,
		reservations: make([]rt.PaddedUint64, cfg.MaxThreads),
		shadow:       make([]padWord, cfg.MaxThreads),
		elide:        make([]rt.PaddedUint64, cfg.MaxThreads),
		limbo:        make([][]ebrItem, cfg.MaxThreads),
		ops:          make([]int, cfg.MaxThreads),
	}
	e.global.Store(2)
	for i := range e.reservations {
		e.reservations[i].Store(ebrIdle)
		e.shadow[i].v = ebrIdle
	}
	return e
}

// Name returns "ebr".
func (*EBR) Name() string { return "ebr" }

// BeginOp announces the thread is active in the current epoch. The
// announcement store is elided when the slot already publishes the
// current epoch (repeated BeginOp without an intervening EndOp) — the
// published reservation is identical either way. EndOp must always
// store: an elided idle announcement would block epoch advancement.
func (e *EBR) BeginOp(tid int) {
	g := e.global.Load()
	if e.shadow[tid].v == g {
		c := &e.elide[tid]
		c.Store(c.Load() + 1)
		rt.Step(rt.SiteProtect, tid)
		return
	}
	e.shadow[tid].v = g
	e.reservations[tid].Store(g)
}

// EndOp marks the thread quiescent.
func (e *EBR) EndOp(tid int) {
	if e.shadow[tid].v == ebrIdle {
		return
	}
	e.shadow[tid].v = ebrIdle
	e.reservations[tid].Store(ebrIdle)
}

// GetProtected needs no per-pointer work: the epoch announcement covers
// every object reachable during the operation. The torture injection
// point still fires here — a reader stalled inside an operation holds
// its epoch reservation, which is exactly EBR's unbounded worst case.
func (e *EBR) GetProtected(tid, _ int, addr *atomic.Uint64) arena.Handle {
	rt.Step(rt.SiteProtect, tid)
	return arena.Handle(addr.Load())
}

// Protect is a no-op under epochs.
func (*EBR) Protect(int, int, arena.Handle) {}

// Clear is a no-op under epochs.
func (*EBR) Clear(int, int) {}

// ClearAll is a no-op under epochs.
func (*EBR) ClearAll(int) {}

// OnAlloc is a no-op for EBR.
func (*EBR) OnAlloc(arena.Handle) {}

// Retire stamps the object with the current epoch and occasionally tries
// to advance the epoch and reap the limbo list.
func (e *EBR) Retire(tid int, v arena.Handle) {
	e.onRetire(tid, v)
	e.limbo[tid] = append(e.limbo[tid], ebrItem{h: v.Unmarked(), epoch: e.global.Load()})
	e.ops[tid]++
	if e.ops[tid]%32 == 0 {
		e.tryAdvance()
		e.reap(tid)
	}
}

// tryAdvance bumps the global epoch if every active thread has observed
// the current one. A single stalled reader blocks the bump — EBR's
// defining weakness.
func (e *EBR) tryAdvance() {
	cur := e.global.Load()
	for t := 0; t < e.cfg.MaxThreads; t++ {
		r := e.reservations[t].Load()
		if r != ebrIdle && r < cur {
			return
		}
	}
	e.global.CompareAndSwap(cur, cur+1)
}

// reap frees limbo entries two epochs behind the global epoch: every
// thread active when they were retired has since passed through a
// quiescent announcement.
func (e *EBR) reap(tid int) {
	g := e.global.Load()
	keep := e.limbo[tid][:0]
	for _, it := range e.limbo[tid] {
		if it.epoch+2 <= g {
			e.env.Free(tid, it.h)
			e.onFree(tid, it.h)
		} else {
			keep = append(keep, it)
		}
	}
	e.limbo[tid] = keep
}

// RetireDepth reports the length of tid's limbo list.
func (e *EBR) RetireDepth(tid int) int { return len(e.limbo[tid]) }

// Flush attempts an advance and a reap.
func (e *EBR) Flush(tid int) {
	e.tryAdvance()
	e.tryAdvance()
	e.reap(tid)
}

// ScanStats reports EBR's elided epoch announcements (EBR has no scan
// engine; only the Elisions field is meaningful).
func (e *EBR) ScanStats() ScanStats {
	var s ScanStats
	for i := range e.elide {
		s.Elisions += e.elide[i].Load()
	}
	return s
}

// Stats reports counters.
func (e *EBR) Stats() Stats { return e.snapshot() }
