package reclaim

import (
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/rt"
)

// HE is hazard eras (Ramalhete–Correia, SPAA '17): each object carries a
// birth era and a retire era in its two header words; readers publish
// the era in which they are traversing instead of individual pointers. A
// retired object may be freed once no published era intersects its
// lifetime interval. Lock-free protect, wait-free retire, bound
// O(#L·H·t²) — looser than the pointer-based schemes, cheaper protects.
//
// Like hpArrays, the published era matrix carries an owner-written
// shadow: Protect and GetProtected consult it and elide the store when
// the slot already publishes the current era — the common case between
// clock ticks, since the era clock only advances on retire. The era
// reservation the slot holds is unchanged by the elided call, so every
// concurrent scan still observes it (DESIGN.md §1.2).
type HE struct {
	counters
	env Env
	cfg Options

	clock   atomic.Uint64
	eras    [][]atomic.Uint64 // published eras, 0 = none
	shadow  [][]uint64        // owner-written mirror of eras
	retired [][]heItem
	eng     *scanEngine
}

type heItem struct {
	h      arena.Handle
	birth  uint64
	retire uint64
}

func init() {
	Register(Registration{
		Name:  "he",
		Rank:  5,
		Build: func(env Env, opts Options) Scheme { return newHE(env, opts) },
	})
}

// newHE builds a hazard-eras instance; construct via New("he", …).
func newHE(env Env, cfg Options) *HE {
	cfg.defaults()
	base := cfg.MaxHPs * cfg.MaxThreads
	if base < 64 {
		base = 64
	}
	if cfg.ScanThreshold > 0 {
		base = cfg.ScanThreshold
	}
	h := &HE{
		env:     env,
		cfg:     cfg,
		eras:    make([][]atomic.Uint64, cfg.MaxThreads),
		shadow:  make([][]uint64, cfg.MaxThreads),
		retired: make([][]heItem, cfg.MaxThreads),
		eng:     newScanEngine(cfg.MaxThreads, cfg.MaxThreads*cfg.MaxHPs, base),
	}
	h.clock.Store(1)
	for i := range h.eras {
		h.eras[i] = make([]atomic.Uint64, cfg.MaxHPs+8)
		h.shadow[i] = make([]uint64, cfg.MaxHPs+8)
	}
	return h
}

// Name returns "he".
func (*HE) Name() string { return "he" }

// BeginOp is a no-op (eras are published per protection slot).
func (*HE) BeginOp(int) {}

// EndOp clears all published eras of the thread.
func (h *HE) EndOp(tid int) { h.ClearAll(tid) }

// OnAlloc stamps the object's birth era into header word A.
func (h *HE) OnAlloc(v arena.Handle) {
	birth, _ := h.env.Hdr(v)
	birth.Store(h.clock.Load())
}

// GetProtected publishes the current era until the era is stable across
// the read of addr — the HE protection loop. The published era is read
// from the owner's shadow (no atomic load), and a call that finds the
// slot already holding the current era performs no store at all.
func (h *HE) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	sh := h.shadow[tid]
	prev := sh[idx]
	stored := false
	for {
		v := arena.Handle(addr.Load())
		era := h.clock.Load()
		if era == prev {
			if !stored {
				h.eng.noteElide(tid)
			}
			// Torture injection point: the era reservation is stable and
			// published; a stall here holds it across the hook — on the
			// elided path the reservation predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		h.eras[tid][idx].Store(era)
		sh[idx] = era
		prev = era
		stored = true
	}
}

// Protect publishes the current era in the slot, eliding the store when
// the slot already holds it.
func (h *HE) Protect(tid, idx int, _ arena.Handle) {
	e := h.clock.Load()
	if h.shadow[tid][idx] == e {
		h.eng.noteElide(tid)
		rt.Step(rt.SiteProtect, tid)
		return
	}
	h.shadow[tid][idx] = e
	h.eras[tid][idx].Store(e)
}

// Clear resets one era slot.
func (h *HE) Clear(tid, idx int) {
	if h.shadow[tid][idx] == 0 {
		return
	}
	h.shadow[tid][idx] = 0
	h.eras[tid][idx].Store(0)
}

// ClearAll resets every era slot of the thread.
func (h *HE) ClearAll(tid int) {
	for i := 0; i < h.cfg.MaxHPs; i++ {
		h.Clear(tid, i)
	}
}

// Retire stamps the retire era, bumps the era clock, and scans when the
// thread's retired list has reached the adaptive threshold. The scan
// runs before the append, capping list growth (see HP.Retire).
func (h *HE) Retire(tid int, v arena.Handle) {
	h.onRetire(tid, v)
	v = v.Unmarked()
	birth, retire := h.env.Hdr(v)
	e := h.clock.Load()
	retire.Store(e)
	if len(h.retired[tid]) >= h.eng.threshold(tid) {
		h.scan(tid)
	}
	h.retired[tid] = append(h.retired[tid], heItem{h: v, birth: birth.Load(), retire: e})
	h.clock.Add(1)
}

func (h *HE) scan(tid int) {
	start := time.Now()
	// Snapshot all published eras once, sorted for binary-search probes.
	eras := h.eng.snapshotEras(tid, h.eras, h.cfg.MaxThreads, h.cfg.MaxHPs)
	batch := len(h.retired[tid])
	keep := h.retired[tid][:0]
	for _, it := range h.retired[tid] {
		if eraReserved(eras, it.birth, it.retire) {
			keep = append(keep, it)
			continue
		}
		h.env.Free(tid, it.h)
		h.onFree(tid, it.h)
	}
	h.retired[tid] = keep
	h.eng.afterScan(tid, batch, batch-len(keep), time.Since(start))
	h.onScan(time.Since(start))
}

// Flush scans unconditionally.
func (h *HE) Flush(tid int) { h.scan(tid) }

// RetireDepth reports the length of tid's retired list.
func (h *HE) RetireDepth(tid int) int { return len(h.retired[tid]) }

// ScanStats reports the scan engine's counters.
func (h *HE) ScanStats() ScanStats { return h.eng.stats() }

// Stats reports counters.
func (h *HE) Stats() Stats { return h.snapshot() }
