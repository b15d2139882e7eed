package reclaim

import (
	"sync/atomic"
	"time"

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
// The upper reservation carries an owner-written shadow so the ratchet
// can compare against the published value without an atomic load and
// elide the store while the era clock is unchanged — between clock
// ticks (one per 16 allocations) every hop takes the elided path
// (DESIGN.md §1.2).
type IBR struct {
	counters
	env Env
	cfg Options

	clock   atomic.Uint64
	lower   []rt.PaddedUint64 // 0 = inactive
	upper   []rt.PaddedUint64
	shUpper []padWord // owner-written mirror of upper
	retired [][]heItem
	allocs  atomic.Uint64
	eng     *scanEngine
}

func init() {
	Register(Registration{
		Name:    "ibr",
		Aliases: []string{"2geibr"},
		Rank:    6,
		Build:   func(env Env, opts Options) Scheme { return newIBR(env, opts) },
	})
}

// newIBR builds a 2GEIBR instance; construct via New("ibr", …).
func newIBR(env Env, cfg Options) *IBR {
	cfg.defaults()
	base := cfg.MaxHPs * cfg.MaxThreads
	if base < 64 {
		base = 64
	}
	if cfg.ScanThreshold > 0 {
		base = cfg.ScanThreshold
	}
	i := &IBR{
		env:     env,
		cfg:     cfg,
		lower:   make([]rt.PaddedUint64, cfg.MaxThreads),
		upper:   make([]rt.PaddedUint64, cfg.MaxThreads),
		shUpper: make([]padWord, cfg.MaxThreads),
		retired: make([][]heItem, cfg.MaxThreads),
		eng:     newScanEngine(cfg.MaxThreads, cfg.MaxThreads, base),
	}
	i.clock.Store(1)
	return i
}

// Name returns "ibr".
func (*IBR) Name() string { return "ibr" }

// BeginOp pins the reservation interval at the current era.
func (i *IBR) BeginOp(tid int) {
	e := i.clock.Load()
	i.lower[tid].Store(e)
	i.upper[tid].Store(e)
	i.shUpper[tid].v = e
}

// EndOp drops the reservation.
func (i *IBR) EndOp(tid int) {
	i.lower[tid].Store(0)
	i.upper[tid].Store(0)
	i.shUpper[tid].v = 0
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
// across the read. The published upper bound is read from the shadow,
// and while the clock is unchanged the whole call elides the store.
func (i *IBR) GetProtected(tid, _ int, addr *atomic.Uint64) arena.Handle {
	sh := &i.shUpper[tid]
	prev := sh.v
	stored := false
	for {
		v := arena.Handle(addr.Load())
		era := i.clock.Load()
		if era == prev {
			if !stored {
				i.eng.noteElide(tid)
			}
			// Torture injection point: the interval reservation is
			// published; a stall here widens it across the hook — on the
			// elided path the reservation predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		i.upper[tid].Store(era)
		sh.v = era
		prev = era
		stored = true
	}
}

// Protect ratchets the upper reservation, eliding the store while the
// published bound already covers the current era.
func (i *IBR) Protect(tid, _ int, _ arena.Handle) {
	e := i.clock.Load()
	sh := &i.shUpper[tid]
	if e <= sh.v {
		i.eng.noteElide(tid)
		rt.Step(rt.SiteProtect, tid)
		return
	}
	i.upper[tid].Store(e)
	sh.v = e
}

// Clear is a no-op: intervals are per-thread, not per-slot.
func (*IBR) Clear(int, int) {}

// ClearAll is a no-op; EndOp drops the reservation.
func (*IBR) ClearAll(int) {}

// Retire stamps the retire era and scans when the list has reached the
// adaptive threshold. The scan runs before the append, capping list
// growth (see HP.Retire).
func (i *IBR) Retire(tid int, v arena.Handle) {
	i.onRetire(tid, v)
	v = v.Unmarked()
	birth, retire := i.env.Hdr(v)
	e := i.clock.Load()
	retire.Store(e)
	if len(i.retired[tid]) >= i.eng.threshold(tid) {
		i.scan(tid)
	}
	i.retired[tid] = append(i.retired[tid], heItem{h: v, birth: birth.Load(), retire: e})
}

func (i *IBR) scan(tid int) {
	start := time.Now()
	i.eng.snapshotIntervals(tid, i.lower, i.upper, i.cfg.MaxThreads)
	batch := len(i.retired[tid])
	keep := i.retired[tid][:0]
	for _, it := range i.retired[tid] {
		if i.eng.intervalReserved(tid, it.birth, it.retire) {
			keep = append(keep, it)
			continue
		}
		i.env.Free(tid, it.h)
		i.onFree(tid, it.h)
	}
	i.retired[tid] = keep
	i.eng.afterScan(tid, batch, batch-len(keep), time.Since(start))
	i.onScan(time.Since(start))
}

// Flush scans unconditionally.
func (i *IBR) Flush(tid int) { i.scan(tid) }

// RetireDepth reports the length of tid's retired list.
func (i *IBR) RetireDepth(tid int) int { return len(i.retired[tid]) }

// ScanStats reports the scan engine's counters.
func (i *IBR) ScanStats() ScanStats { return i.eng.stats() }

// Stats reports counters.
func (i *IBR) Stats() Stats { return i.snapshot() }
