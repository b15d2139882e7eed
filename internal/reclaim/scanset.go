package reclaim

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/rt"
)

// The scan engine is the shared zero-allocation substrate behind the
// scanning schemes (HP, HE, IBR). The seed implementations rebuilt a
// map[Handle]struct{} of the published set on every scan — an
// allocation, a hash per probe, and GC pressure exactly on the
// reclamation critical path. The engine replaces that with one reusable
// per-thread snapshot buffer per scheme: the published set is collected
// once per scan into a buffer grown once to its maximum possible size
// (threads × slots), sorted in place, and probed by binary search.
// Steady-state scans allocate nothing (enforced by TestScanZeroAlloc).
//
// The engine also owns the retire threshold, and makes it adaptive: a
// scan that frees almost none of its batch means readers are pinning
// the retired set, so scanning again soon is wasted work — the
// threshold doubles (up to a clamp). A scan that frees almost all of
// its batch means reclamation is keeping up and the pending list can be
// kept short — the threshold halves (down to a clamp). Thresholds are
// per-thread (each thread owns its retired list), the policy is applied
// by the scanning thread only, and the knob is observable through
// Scheme.ScanStats, bench.Admin and the /debug/reclaim endpoint.

// Adaptive threshold policy: grow when a scan frees < 25% of its batch,
// shrink when it frees > 75%, always clamped to [minThreshold,
// maxThreshold].
const (
	scanGrowBelowBP   = 2500 // basis points of batch freed
	scanShrinkAboveBP = 7500
)

var scanAdaptive atomic.Bool

func init() {
	scanAdaptive.Store(true)
	// Surface the scan engine on /debug/reclaim without obs importing
	// this package: the handler asks the registered provider for a
	// snapshot and routes the adaptive toggle back here.
	obs.SetScanDebug(&obs.ScanDebug{
		Info:        func() any { return ScanDebugSnapshot() },
		SetAdaptive: SetAdaptiveScan,
		Adaptive:    AdaptiveScanEnabled,
	})
}

// SetAdaptiveScan flips the adaptive retire-threshold policy for every
// scan engine in the process (default on). With it off, thresholds
// freeze at their current values.
func SetAdaptiveScan(on bool) { scanAdaptive.Store(on) }

// AdaptiveScanEnabled reports the global adaptive-threshold switch.
func AdaptiveScanEnabled() bool { return scanAdaptive.Load() }

// ScanStats snapshots one scheme instance's scan-engine state. The
// counters aggregate across threads; Threshold is the largest current
// per-thread threshold.
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
	Adaptive         bool   `json:"adaptive"`
}

// ScanStatser is implemented by schemes that expose scan-engine or
// protection-elision accounting.
type ScanStatser interface {
	ScanStats() ScanStats
}

// iv is one [lo, hi] era reservation interval.
type iv struct{ lo, hi uint64 }

// padWord is a plain, owner-written word alone on its cache line —
// the per-thread shadow of a published slot (see the elision fast
// path in hp.go/he.go/ibr.go/ebr.go).
type padWord struct {
	v uint64
	_ [rt.CacheLine - 8]byte
}

// scanTL is one thread's engine state. The snapshot buffers are touched
// only by the owning thread during its own scans; the threshold and the
// counters are written by the owner and read concurrently by metrics
// gauges, so they are atomics (single-writer, no RMW contention).
type scanTL struct {
	snap  []arena.Handle // reusable published-handle snapshot (HP)
	eras  []uint64       // reusable era snapshot (HE)
	ivs   []iv           // reusable interval snapshot, sorted by lo (IBR)
	maxHi []uint64       // prefix maxima over ivs[..i].hi (IBR)

	threshold   atomic.Int64
	scans       atomic.Uint64
	scanned     atomic.Uint64
	freed       atomic.Uint64
	scanNs      atomic.Int64
	elide       atomic.Uint64
	lastRatioBP atomic.Int64

	_ [rt.CacheLine]byte
}

// scanEngine holds the per-thread scan state for one scheme instance.
type scanEngine struct {
	base    int // initial threshold
	minT    int // clamp floor
	maxT    int // clamp ceiling
	snapCap int // maximum possible snapshot size (threads × slots)
	tl      []scanTL
}

// newScanEngine sizes an engine for a scheme with the given per-thread
// base threshold and a published set of at most snapCap entries.
func newScanEngine(threads, snapCap, base int) *scanEngine {
	if base < 1 {
		base = 1
	}
	e := &scanEngine{
		base:    base,
		minT:    max(8, base/4),
		maxT:    base * 16,
		snapCap: snapCap,
		tl:      make([]scanTL, threads),
	}
	if e.minT > base {
		e.minT = base
	}
	for i := range e.tl {
		e.tl[i].threshold.Store(int64(base))
	}
	return e
}

// threshold returns tid's current retire threshold.
func (e *scanEngine) threshold(tid int) int { return int(e.tl[tid].threshold.Load()) }

// noteElide records one elided protection publish for tid.
func (e *scanEngine) noteElide(tid int) {
	c := &e.tl[tid].elide
	c.Store(c.Load() + 1)
}

// afterScan books one scan's outcome and applies the adaptive policy.
// batch is the retired-list length the scan examined, freed how many it
// reclaimed. Flush-driven scans over empty lists (batch 0) count as
// scans but do not move the threshold.
func (e *scanEngine) afterScan(tid, batch, freed int, dur time.Duration) {
	tl := &e.tl[tid]
	tl.scans.Store(tl.scans.Load() + 1)
	tl.scanned.Store(tl.scanned.Load() + uint64(batch))
	tl.freed.Store(tl.freed.Load() + uint64(freed))
	tl.scanNs.Store(tl.scanNs.Load() + dur.Nanoseconds())
	if batch == 0 {
		return
	}
	ratioBP := int64(freed) * 10000 / int64(batch)
	tl.lastRatioBP.Store(ratioBP)
	if !scanAdaptive.Load() {
		return
	}
	t := int(tl.threshold.Load())
	switch {
	case ratioBP < scanGrowBelowBP:
		t *= 2
		if t > e.maxT {
			t = e.maxT
		}
	case ratioBP > scanShrinkAboveBP:
		t /= 2
		if t < e.minT {
			t = e.minT
		}
	default:
		return
	}
	tl.threshold.Store(int64(t))
}

// stats aggregates the engine counters across threads.
func (e *scanEngine) stats() ScanStats {
	s := ScanStats{
		MinThreshold: e.minT,
		MaxThreshold: e.maxT,
		Adaptive:     scanAdaptive.Load(),
	}
	for i := range e.tl {
		tl := &e.tl[i]
		s.Scans += tl.scans.Load()
		s.Scanned += tl.scanned.Load()
		s.Freed += tl.freed.Load()
		s.ScanNs += tl.scanNs.Load()
		s.Elisions += tl.elide.Load()
		if t := int(tl.threshold.Load()); t > s.Threshold {
			s.Threshold = t
		}
		if r := tl.lastRatioBP.Load(); r > s.LastFreedRatioBP {
			s.LastFreedRatioBP = r
		}
	}
	if s.Scanned > 0 {
		s.FreedRatioBP = int64(s.Freed) * 10000 / int64(s.Scanned)
	}
	return s
}

// ---------------------------------------------------------------------
// Snapshot builders: one pass over the published set per scan, into
// tid's reusable buffer, sorted for binary-search probes. The buffers
// are grown once to snapCap and never reallocated.

// snapshotHP collects the non-nil published hazardous pointers into
// tid's sorted handle snapshot.
func (e *scanEngine) snapshotHP(tid int, a *hpArrays, threads, hps int) []arena.Handle {
	tl := &e.tl[tid]
	if cap(tl.snap) < e.snapCap {
		tl.snap = make([]arena.Handle, 0, e.snapCap)
	}
	buf := tl.snap[:0]
	for t := 0; t < threads; t++ {
		for i := 0; i < hps; i++ {
			if p := a.read(t, i); !p.IsNil() {
				buf = append(buf, p)
			}
		}
	}
	arena.SortHandles(buf)
	tl.snap = buf
	return buf
}

// snapshotEras collects the non-zero published eras into tid's sorted
// era snapshot.
func (e *scanEngine) snapshotEras(tid int, eras [][]atomic.Uint64, threads, hps int) []uint64 {
	tl := &e.tl[tid]
	if cap(tl.eras) < e.snapCap {
		tl.eras = make([]uint64, 0, e.snapCap)
	}
	buf := tl.eras[:0]
	for t := 0; t < threads; t++ {
		row := eras[t]
		for i := 0; i < hps; i++ {
			if v := row[i].Load(); v != 0 {
				buf = append(buf, v)
			}
		}
	}
	slices.Sort(buf)
	tl.eras = buf
	return buf
}

// eraReserved reports whether any published era in the sorted snapshot
// falls inside [birth, retire]: binary-search the first era ≥ birth and
// check it against retire.
func eraReserved(sorted []uint64, birth, retire uint64) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < birth {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] <= retire
}

// snapshotIntervals collects the active [lower, upper] reservations
// into tid's interval snapshot, sorted by lower bound, with running
// prefix maxima over the upper bounds for O(log n) intersection probes.
func (e *scanEngine) snapshotIntervals(tid int, lower, upper []rt.PaddedUint64, threads int) {
	tl := &e.tl[tid]
	if cap(tl.ivs) < threads {
		tl.ivs = make([]iv, 0, threads)
		tl.maxHi = make([]uint64, 0, threads)
	}
	buf := tl.ivs[:0]
	for t := 0; t < threads; t++ {
		lo := lower[t].Load()
		if lo == 0 {
			continue
		}
		hi := upper[t].Load()
		if hi < lo {
			hi = lo
		}
		buf = append(buf, iv{lo, hi})
	}
	slices.SortFunc(buf, cmpIV)
	mh := tl.maxHi[:0]
	run := uint64(0)
	for _, r := range buf {
		if r.hi > run {
			run = r.hi
		}
		mh = append(mh, run)
	}
	tl.ivs = buf
	tl.maxHi = mh
}

func cmpIV(a, b iv) int {
	switch {
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	default:
		return 0
	}
}

// intervalReserved reports whether any snapshotted reservation
// intersects [birth, retire]: among the intervals with lo ≤ retire
// (a sorted prefix), an intersection exists iff the largest hi reaches
// back to birth.
func (e *scanEngine) intervalReserved(tid int, birth, retire uint64) bool {
	tl := &e.tl[tid]
	ivs := tl.ivs
	// Last interval with lo <= retire.
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].lo <= retire {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && tl.maxHi[lo-1] >= birth
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
