package reclaim

import (
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/rt"
)

// hpArrays is the published hazardous-pointer matrix shared by the
// pointer-based schemes: one single-writer row per thread, readable by
// every retiring thread. Entries hold unmarked handles.
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
	shadow [][]uint64        // owner-written mirror of rows
	elide  []rt.PaddedUint64 // per-thread elided publishes
	hps    int
}

func newHPArrays(threads, hps int) *hpArrays {
	a := &hpArrays{
		rows:   make([][]atomic.Uint64, threads),
		shadow: make([][]uint64, threads),
		elide:  make([]rt.PaddedUint64, threads),
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

func (a *hpArrays) publish(tid, idx int, h arena.Handle) {
	u := uint64(h.Unmarked())
	if a.shadow[tid][idx] == u {
		// Elision fast path: the slot already publishes u. Torture
		// injection point inside the branch — a stall parked here must
		// still be protected by the untouched slot.
		c := &a.elide[tid]
		c.Store(c.Load() + 1)
		rt.Step(rt.SiteProtect, tid)
		return
	}
	a.shadow[tid][idx] = u
	a.rows[tid][idx].Store(u)
}

func (a *hpArrays) read(tid, idx int) arena.Handle {
	return arena.Handle(a.rows[tid][idx].Load())
}

func (a *hpArrays) clear(tid, idx int) {
	if a.shadow[tid][idx] == 0 {
		return
	}
	a.shadow[tid][idx] = 0
	a.rows[tid][idx].Store(0)
}

func (a *hpArrays) clearAll(tid int) {
	for i := 0; i < a.hps; i++ {
		a.clear(tid, i)
	}
}

// elisions sums the elided publishes across threads.
func (a *hpArrays) elisions() uint64 {
	var n uint64
	for i := range a.elide {
		n += a.elide[i].Load()
	}
	return n
}

// PublishWithSwap mirrors core.PublishWithSwap for the manual schemes:
// publish hazardous pointers with exchange instead of store (the
// Intel/AMD ablation of DESIGN.md). Flip only at quiescence.
var PublishWithSwap atomic.Bool

// getProtected is the protection loop shared verbatim by HP, PTB and PTP
// (the paper notes the three schemes protect identically): re-publish
// until the address still holds the published value. The loop seeds its
// "published" value from the shadow, so a hop that lands on the handle
// the slot already protects — the common case when retrying a traversal
// or revisiting the same node — validates immediately with no store at
// all (the elision fast path).
func (a *hpArrays) getProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	swap := PublishWithSwap.Load()
	sh := a.shadow[tid]
	published := sh[idx]
	stored := false
	for {
		v := arena.Handle(addr.Load())
		u := uint64(v.Unmarked())
		if u == published {
			if !stored {
				c := &a.elide[tid]
				c.Store(c.Load() + 1)
			}
			// Torture injection point: the caller's hazardous pointer is
			// published and validated, so a stall parked here pins the
			// object for as long as the hook blocks — on the elided path
			// the protection predates this call entirely.
			rt.Step(rt.SiteProtect, tid)
			return v
		}
		if swap {
			a.rows[tid][idx].Swap(u)
		} else {
			a.rows[tid][idx].Store(u)
		}
		sh[idx] = u
		published = u
		stored = true
	}
}

// HP is Michael's hazard-pointers scheme: per-thread retired lists,
// amortized scans that free every retired object not currently
// published. Bound on unreclaimed objects: O(H·t²).
type HP struct {
	counters
	env Env
	cfg Options
	hp  *hpArrays
	// per-thread retired lists; single-owner, no synchronization
	retired [][]arena.Handle
	eng     *scanEngine
}

func init() {
	Register(Registration{
		Name:  "hp",
		Rank:  1,
		Build: func(env Env, opts Options) Scheme { return newHP(env, opts) },
	})
}

// newHP builds a hazard-pointers instance; construct via New("hp", …).
func newHP(env Env, cfg Options) *HP {
	cfg.defaults()
	// Classic base threshold R = 2·H·t; Options.ScanThreshold overrides.
	base := 2 * cfg.MaxHPs * cfg.MaxThreads
	if base < 64 {
		base = 64
	}
	if cfg.ScanThreshold > 0 {
		base = cfg.ScanThreshold
	}
	return &HP{
		env:     env,
		cfg:     cfg,
		hp:      newHPArrays(cfg.MaxThreads, cfg.MaxHPs),
		retired: make([][]arena.Handle, cfg.MaxThreads),
		eng:     newScanEngine(cfg.MaxThreads, cfg.MaxThreads*cfg.MaxHPs, base),
	}
}

// Name returns "hp".
func (*HP) Name() string { return "hp" }

// BeginOp is a no-op for HP.
func (*HP) BeginOp(int) {}

// EndOp is a no-op for HP.
func (*HP) EndOp(int) {}

// GetProtected implements the standard hazard-pointer protection loop.
func (h *HP) GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle {
	return h.hp.getProtected(tid, idx, addr)
}

// Protect publishes an already-pinned handle.
func (h *HP) Protect(tid, idx int, v arena.Handle) { h.hp.publish(tid, idx, v) }

// Clear clears one slot.
func (h *HP) Clear(tid, idx int) { h.hp.clear(tid, idx) }

// ClearAll clears the thread's row.
func (h *HP) ClearAll(tid int) { h.hp.clearAll(tid) }

// OnAlloc is a no-op for HP.
func (*HP) OnAlloc(arena.Handle) {}

// Retire scans when the thread's retired list has reached the adaptive
// threshold, then appends. Scanning before the append caps the list: a
// scan that frees nothing cannot let the list grow past threshold by a
// whole batch before the next scan fires (the adaptive policy raises
// the threshold instead, up to its clamp).
func (h *HP) Retire(tid int, v arena.Handle) {
	h.onRetire(tid, v)
	if len(h.retired[tid]) >= h.eng.threshold(tid) {
		h.scan(tid)
	}
	h.retired[tid] = append(h.retired[tid], v.Unmarked())
}

// Flush runs a scan unconditionally.
func (h *HP) Flush(tid int) { h.scan(tid) }

// RetireDepth reports the length of tid's retired list.
func (h *HP) RetireDepth(tid int) int { return len(h.retired[tid]) }

func (h *HP) scan(tid int) {
	start := time.Now()
	published := h.eng.snapshotHP(tid, h.hp, h.cfg.MaxThreads, h.cfg.MaxHPs)
	batch := len(h.retired[tid])
	keep := h.retired[tid][:0]
	for _, v := range h.retired[tid] {
		if arena.SearchHandles(published, v) {
			keep = append(keep, v)
			continue
		}
		h.env.Free(tid, v)
		h.onFree(tid, v)
	}
	h.retired[tid] = keep
	h.eng.afterScan(tid, batch, batch-len(keep), time.Since(start))
	h.onScan(time.Since(start))
}

// ScanStats reports the scan engine's counters plus the protection
// elisions of the shared hazardous-pointer matrix.
func (h *HP) ScanStats() ScanStats {
	s := h.eng.stats()
	s.Elisions += h.hp.elisions()
	return s
}

// Stats reports counters.
func (h *HP) Stats() Stats { return h.snapshot() }
