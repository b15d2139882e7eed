package reclaim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/rt"
)

// The retire engine is the machinery HP, HE, IBR and EBR share: one
// per-thread retired list, the trigger that decides when to scan it,
// the filter loop that frees every item no longer protected, Flush,
// RetireDepth and the scan bookkeeping. A scheme supplies only a policy:
// snapshot whatever currently protects (published hazard pointers, eras,
// intervals, the global epoch) and answer, per retired item, whether it
// is still protected.
//
// Snapshots reuse per-thread buffers instead of rebuilding a
// map[Handle]struct{} of the published set on every scan — an
// allocation, a hash per probe, and GC pressure exactly on the
// reclamation critical path. The published set is collected once per
// scan into a buffer grown once to its maximum possible size
// (threads × slots), sorted in place, and probed by binary search.
// Steady-state scans allocate nothing (enforced by TestScanZeroAlloc).
//
// The threshold schemes (HP, HE, IBR) scan before an append that finds
// the list at the thread's threshold, and the threshold is adaptive: a
// scan that frees almost none of its batch means readers are pinning
// the retired set, so scanning again soon is wasted work — the
// threshold doubles (up to a clamp). A scan that frees almost all of
// its batch means reclamation is keeping up and the pending list can be
// kept short — the threshold halves (down to a clamp). EBR instead
// reaps after every 32nd retire: its list grows without bound behind a
// stalled reader, and a length trigger would then rescan it on every
// retire. The knob is observable through ScanStats, bench.Admin and the
// /debug/reclaim endpoint.

// Adaptive threshold policy: grow when a scan frees < 25% of its batch,
// shrink when it frees > 75%, always clamped to [limits.min, limits.max].
const (
	scanGrowBelowBP   = 2500 // basis points of batch freed
	scanShrinkAboveBP = 7500
)

func init() {
	// Surface the engines on /debug/reclaim without obs importing this
	// package: the handler asks the registered provider for a snapshot.
	obs.SetScanDebug(&obs.ScanDebug{Info: func() any { return ScanDebugSnapshot() }})
}

// ScanStats snapshots one scheme instance's scan-engine state. The
// counters aggregate across threads; Threshold is the largest current
// per-thread threshold. Schemes without a retire engine fill only
// Elisions (and OrcGC's PeekFails).
type ScanStats struct {
	Scans            uint64 `json:"scans"`               // scans executed
	Scanned          uint64 `json:"scanned"`             // retired objects examined
	Freed            uint64 `json:"freed"`               // objects freed by scans
	ScanNs           int64  `json:"scan_ns"`             // total time inside scans
	Elisions         uint64 `json:"elisions"`            // protection publishes elided
	PeekFails        uint64 `json:"peek_fails"`          // speculative reads that failed validation (OrcGC)
	Threshold        int    `json:"threshold"`           // current (max across threads)
	MinThreshold     int    `json:"min_threshold"`       // clamp floor
	MaxThreshold     int    `json:"max_threshold"`       // clamp ceiling
	FreedRatioBP     int64  `json:"freed_ratio_bp"`      // lifetime freed/scanned, basis points
	LastFreedRatioBP int64  `json:"last_freed_ratio_bp"` // most recent scan (max across threads)
}

// ScanStatser is implemented by schemes that expose scan-engine or
// protection-elision accounting.
type ScanStatser interface {
	ScanStats() ScanStats
}

// iv is one [lo, hi] era reservation interval.
type iv struct{ lo, hi uint64 }

// item is one entry of a retired list: the retired handle plus whatever
// the scheme's predicate reads (eras, an epoch).
type item interface {
	handle() arena.Handle
}

// policy is a scheme's side of the engine.
type policy[T item] interface {
	// snapshot collects what currently protects retired objects into
	// the scanning thread's buffers.
	snapshot(sc *scanBufs)
	// protected reports whether it must stay on the list.
	protected(sc *scanBufs, it T) bool
}

// limits bounds an engine's per-thread threshold: it starts at base and
// the adaptive policy moves it within [min, max]; min == max == base
// freezes it.
type limits struct{ base, min, max int }

// adaptive returns the default clamps around base: [max(8, base/4),
// 16·base], with the floor never above base itself.
func adaptive(base int) limits {
	base = max(base, 1)
	return limits{base: base, min: min(max(8, base/4), base), max: base * 16}
}

// fixed returns limits that freeze the threshold at n.
func fixed(n int) limits { return limits{n, n, n} }

// engineTL is one thread's engine state. The list and the snapshot
// buffers are touched only by the owning thread; the threshold and the
// scan counters are written by the owner and read concurrently by
// metrics gauges, so they are single-writer atomics.
type engineTL[T item] struct {
	items []T
	scanBufs

	threshold   atomic.Int64
	scans       atomic.Uint64
	scanned     atomic.Uint64
	scanNs      atomic.Int64
	lastRatioBP atomic.Int64

	_ [rt.CacheLine]byte
}

// engine is the retire engine of one scheme instance. Schemes embed it
// and so inherit base, Flush, RetireDepth and ScanStats.
type engine[T item] struct {
	base
	pol     policy[T]
	lim     limits
	cadence bool // scan after every lim.base-th retire (EBR), not at a length threshold
	tl      []engineTL[T]
}

func newEngine[T item](name string, env Env, cfg Options, lim limits, pol policy[T]) engine[T] {
	e := engine[T]{base: newBase(name, env, cfg), pol: pol, lim: lim}
	e.tl = make([]engineTL[T], e.cfg.MaxThreads)
	for i := range e.tl {
		e.tl[i].threshold.Store(int64(lim.base))
	}
	return e
}

// add puts a retired item on tid's list. A threshold engine scans first
// when the list has reached the threshold: scanning before the append
// caps the list, since a scan that frees nothing cannot let it grow a
// whole batch past the threshold before the next scan fires (the
// adaptive policy raises the threshold instead, up to its clamp).
func (e *engine[T]) add(tid int, it T) {
	l := &e.tl[tid]
	if !e.cadence && len(l.items) >= int(l.threshold.Load()) {
		e.scan(tid)
	}
	l.items = append(l.items, it)
	e.setDepth(tid, len(l.items))
	if e.cadence && e.tc[tid].retired.Load()%uint64(e.lim.base) == 0 {
		e.scan(tid)
	}
}

// scan frees every item on tid's list that the policy no longer
// protects and keeps the rest, in place.
func (e *engine[T]) scan(tid int) {
	start := time.Now()
	l := &e.tl[tid]
	e.pol.snapshot(&l.scanBufs)
	batch := len(l.items)
	keep := l.items[:0]
	for _, it := range l.items {
		if e.pol.protected(&l.scanBufs, it) {
			keep = append(keep, it)
			continue
		}
		h := it.handle()
		e.env.Free(tid, h)
		e.onFree(tid, h)
	}
	l.items = keep
	e.setDepth(tid, len(keep))
	e.afterScan(tid, batch, batch-len(keep), time.Since(start))
}

// afterScan books one scan's outcome and applies the adaptive policy.
// batch is the list length the scan examined, freed how many it
// reclaimed. Flush-driven scans over empty lists (batch 0) count as
// scans but do not move the threshold.
func (e *engine[T]) afterScan(tid, batch, freed int, dur time.Duration) {
	l := &e.tl[tid]
	inc(&l.scans)
	l.scanned.Store(l.scanned.Load() + uint64(batch))
	l.scanNs.Store(l.scanNs.Load() + dur.Nanoseconds())
	if in := e.inst; in != nil && in.scanLat != nil {
		in.scanLat.Observe(uint64(dur.Nanoseconds()))
	}
	if batch == 0 {
		return
	}
	ratioBP := int64(freed) * 10000 / int64(batch)
	l.lastRatioBP.Store(ratioBP)
	t := int(l.threshold.Load())
	switch {
	case ratioBP < scanGrowBelowBP:
		t = min(t*2, e.lim.max)
	case ratioBP > scanShrinkAboveBP:
		t = max(t/2, e.lim.min)
	default:
		return
	}
	l.threshold.Store(int64(t))
}

// Flush scans tid's list unconditionally.
func (e *engine[T]) Flush(tid int) { e.scan(tid) }

// ScanStats aggregates the engine counters across threads.
func (e *engine[T]) ScanStats() ScanStats {
	s := e.base.ScanStats()
	s.Freed = e.Stats().Freed // every free of an engine scheme is a scan's
	s.MinThreshold, s.MaxThreshold = e.lim.min, e.lim.max
	for i := range e.tl {
		l := &e.tl[i]
		s.Scans += l.scans.Load()
		s.Scanned += l.scanned.Load()
		s.ScanNs += l.scanNs.Load()
		s.Threshold = max(s.Threshold, int(l.threshold.Load()))
		s.LastFreedRatioBP = max(s.LastFreedRatioBP, l.lastRatioBP.Load())
	}
	if s.Scanned > 0 {
		s.FreedRatioBP = int64(s.Freed) * 10000 / int64(s.Scanned)
	}
	return s
}

// ---------------------------------------------------------------------
// Snapshot builders: one pass over the published set per scan, into the
// scanning thread's reusable buffers, sorted for binary-search probes.
// The buffers are grown once to their maximum size and never
// reallocated.

// scanBufs is one thread's snapshot scratch; each policy uses the
// buffer for its kind of protection.
type scanBufs struct {
	words []uint64 // published handles (HP) or eras (HE), sorted
	ivs   []iv     // reservations, sorted by lo (IBR)
	maxHi []uint64 // prefix maxima over ivs[..i].hi (IBR)
	epoch uint64   // global epoch at the reap (EBR)
}

// published collects the non-zero words of a hazard matrix into the
// sorted word snapshot.
func (sc *scanBufs) published(a *hpArrays) {
	threads := len(a.rows)
	if cap(sc.words) < threads*a.hps {
		sc.words = make([]uint64, 0, threads*a.hps)
	}
	buf := sc.words[:0]
	for t := 0; t < threads; t++ {
		for i := 0; i < a.hps; i++ {
			if v := a.read(t, i); v != 0 {
				buf = append(buf, v)
			}
		}
	}
	slices.Sort(buf)
	sc.words = buf
}

// eraReserved reports whether any published era in the sorted snapshot
// falls inside [birth, retire]: the first era ≥ birth must not pass
// retire.
func eraReserved(sorted []uint64, birth, retire uint64) bool {
	i, _ := slices.BinarySearch(sorted, birth)
	return i < len(sorted) && sorted[i] <= retire
}

// intervals collects the active [lower, upper] reservations into the
// interval snapshot, sorted by lower bound, with running prefix maxima
// over the upper bounds for O(log n) intersection probes.
func (sc *scanBufs) intervals(lower []rt.PaddedUint64, upper *hpArrays) {
	threads := len(lower)
	if cap(sc.ivs) < threads {
		sc.ivs = make([]iv, 0, threads)
		sc.maxHi = make([]uint64, 0, threads)
	}
	buf := sc.ivs[:0]
	for t := 0; t < threads; t++ {
		lo := lower[t].Load()
		if lo == 0 {
			continue
		}
		buf = append(buf, iv{lo, max(upper.read(t, 0), lo)})
	}
	slices.SortFunc(buf, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	mh := sc.maxHi[:0]
	run := uint64(0)
	for _, r := range buf {
		run = max(run, r.hi)
		mh = append(mh, run)
	}
	sc.ivs = buf
	sc.maxHi = mh
}

// intervalReserved reports whether any snapshotted reservation
// intersects [birth, retire]: among the intervals with lo ≤ retire
// (a sorted prefix of length n), an intersection exists iff the largest
// hi reaches back to birth.
func (sc *scanBufs) intervalReserved(birth, retire uint64) bool {
	n, _ := slices.BinarySearchFunc(sc.ivs, retire, func(r iv, t uint64) int {
		if r.lo <= t {
			return -1
		}
		return 1
	})
	return n > 0 && sc.maxHi[n-1] >= birth
}

// ---------------------------------------------------------------------
// /debug/reclaim surface: instrumented scheme instances register their
// ScanStats providers here; the obs handler folds the snapshot into the
// endpoint's JSON. Only instrumented instances register (tests build
// thousands of anonymous ones), and the table is capped as a backstop.

type scanDebugEntry struct {
	label string
	fn    func() ScanStats
}

var (
	scanDbgMu sync.Mutex
	scanDbg   []scanDebugEntry
)

const scanDbgCap = 128

func registerScanDebug(label string, fn func() ScanStats) {
	scanDbgMu.Lock()
	defer scanDbgMu.Unlock()
	if len(scanDbg) >= scanDbgCap {
		return
	}
	scanDbg = append(scanDbg, scanDebugEntry{label, fn})
}

// ScanDebugSnapshot returns the ScanStats of every registered
// (instrumented) scheme instance, keyed by metric label.
func ScanDebugSnapshot() map[string]ScanStats {
	scanDbgMu.Lock()
	entries := make([]scanDebugEntry, len(scanDbg))
	copy(entries, scanDbg)
	scanDbgMu.Unlock()
	out := make(map[string]ScanStats, len(entries))
	for _, e := range entries {
		out[e.label] = e.fn()
	}
	return out
}
