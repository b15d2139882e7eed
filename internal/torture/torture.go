// Package torture is the deterministic, seeded torture harness: it runs
// every reclamation scheme × data-structure pairing from the bench
// registry under injected adversity — stalled readers parked inside the
// protection loop while holding published hazard/orc references,
// randomized op mixes checked against per-thread shadow models, and
// forced scheduler perturbation at the rt.Step injection points in the
// arena and reclamation hot paths — and ends every run with a verdict
// ledger: zero arena faults in Count mode, Live back at the baseline
// after a drain for reclaiming schemes, retired == freed + pending, and
// shadow-model conservation.
//
// Runs are seeded: the op schedule of every thread is a pure function of
// (seed, tid, config), witnessed by ScheduleHash, so a failing seed
// reproduces the same schedules (thread interleaving remains up to the
// scheduler — the adversity is real concurrency, not replay).
package torture

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/reclaim"
	"repro/internal/rt"
)

// Config parameterizes one torture run.
type Config struct {
	Seed         uint64
	Threads      int    // worker goroutines; 0 → 4 (capped at 64)
	OpsPerThread uint64 // ops each worker performs; 0 → 5000
	Keys         uint64 // set key-space size; 0 → 512
	InsertPct    int    // set mix; 0,0 → 35/35/30 insert/remove/contains
	RemovePct    int
	Stalls       int    // tids < Stalls park inside the protection loop
	StallEvery   uint64 // park every Nth protect of a stalled tid; 0 → 256
	StallHold    uint64 // global ops that must pass while parked; 0 → 2000
	PerturbMask  uint64 // Gosched when stepCount&mask==0; 0 → 63
}

func (c *Config) defaults() {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Threads > 64 {
		c.Threads = 64 // queue value encoding reserves 24 bits for seq
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 5000
	}
	if c.OpsPerThread > 1<<24-1 {
		c.OpsPerThread = 1<<24 - 1
	}
	if c.Keys == 0 {
		c.Keys = 512
	}
	if c.InsertPct == 0 && c.RemovePct == 0 {
		c.InsertPct, c.RemovePct = 35, 35
	}
	if c.Stalls < 0 || c.Stalls > c.Threads {
		c.Stalls = 0
	}
	if c.StallEvery == 0 {
		c.StallEvery = 256
	}
	if c.StallHold == 0 {
		c.StallHold = 2000
	}
	if c.PerturbMask == 0 {
		c.PerturbMask = 63
	}
}

// Verdict is the ledger one run ends with. A run passes iff Failures is
// empty; every acceptance condition that does not hold appends one line.
type Verdict struct {
	Subject      string
	Kind         string // "set", "queue", "kv", "scan", "cluster", or "overload"
	Seed         uint64
	Threads      int
	Ops          uint64 // ops actually performed by workers
	ScheduleHash uint64 // FNV over every thread's op schedule
	Baseline     int64  // arena Live after construction
	Arena        arena.Stats
	Scheme       reclaim.Stats
	Scan         reclaim.ScanStats // zero-valued when the subject has no scan path
	Reclaiming   bool
	StallsTaken  uint64 // protect-loop parks actually executed
	Perturbs     uint64 // forced Gosched calls at injection points
	// Cluster holds proxy-level counters (routed ops, hedges, breaker
	// trips, rebalance keys moved) for the cluster-failover subject and
	// the admission ledger (sheds, expiries, max retire backlog) for the
	// overload subject; nil for other subjects.
	Cluster  map[string]int64
	Failures []string
}

// Passed reports whether every ledger condition held.
func (v *Verdict) Passed() bool { return len(v.Failures) == 0 }

func (v *Verdict) failf(format string, args ...any) {
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// String renders the one-line verdict used by cmd/orctorture.
func (v *Verdict) String() string {
	status := "ok  "
	if !v.Passed() {
		status = "FAIL"
	}
	line := fmt.Sprintf("%s %-12s %-5s ops=%-7d hash=%016x live=%d base=%d faults=%d retired=%d freed=%d pending=%d stalls=%d perturbs=%d elide=%d peekfail=%d",
		status, v.Subject, v.Kind, v.Ops, v.ScheduleHash, v.Arena.Live, v.Baseline,
		v.Arena.Faults, v.Scheme.Retired, v.Scheme.Freed, v.Scheme.RetiredNotFreed,
		v.StallsTaken, v.Perturbs, v.Scan.Elisions, v.Scan.PeekFails)
	if v.Cluster != nil {
		if _, ok := v.Cluster["shed_total"]; ok {
			line += fmt.Sprintf(" shed=%d expired=%d completed=%d maxbacklog=%d",
				v.Cluster["shed_total"], v.Cluster["deadline_exceeded_total"],
				v.Cluster["completed"], v.Cluster["max_backlog"])
		} else {
			line += fmt.Sprintf(" routed=%d hedges=%d trips=%d moved=%d",
				v.Cluster["routed"], v.Cluster["hedges_fired"], v.Cluster["breaker_trips"], v.Cluster["keys_moved"])
		}
	}
	return line
}

// hookMu serializes torture runs: the rt hook and the fault mode are
// process-global, so two concurrent runs would see each other's
// injections.
var hookMu sync.Mutex

const fnvOffset = uint64(14695981039346656037)

func fnv1a(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xFF
			h *= 1099511628211
			w >>= 8
		}
	}
	return h
}

// injector owns the rt hook for one run: scheduler perturbation at every
// injection point, plus reader stalls parked inside the protection loop,
// or inside a speculative read's validation window, of designated tids. The park spins until StallHold further ops have
// completed globally (holding the published protection the whole time)
// or the run winds down.
type injector struct {
	cfg      Config
	opsDone  atomic.Uint64
	stallOff atomic.Bool
	stalls   atomic.Uint64
	perturbs atomic.Uint64
	steps    atomic.Uint64
	protects []atomic.Uint64 // per stalled tid: protect calls seen
}

func newInjector(cfg Config) *injector {
	return &injector{cfg: cfg, protects: make([]atomic.Uint64, cfg.Stalls)}
}

func (in *injector) hook(site rt.Site, tid int) {
	if (site == rt.SiteProtect || site == rt.SitePeek) && tid >= 0 && tid < in.cfg.Stalls && !in.stallOff.Load() {
		if in.protects[tid].Add(1)%in.cfg.StallEvery == 0 {
			// Park here. At SiteProtect the caller's hazard pointer /
			// era / orc scratch slot is published and validated, so the
			// object it protects must survive everything retired
			// meanwhile. At SitePeek the caller holds nothing: it has
			// read a node's fields and not yet validated them, so the
			// node may be freed and recycled under it, and the
			// validation must reject what it read.
			in.stalls.Add(1)
			target := in.opsDone.Load() + in.cfg.StallHold
			for spins := 0; in.opsDone.Load() < target && !in.stallOff.Load(); spins++ {
				runtime.Gosched()
				if spins > 1<<22 { // hard cap: never wedge the harness
					break
				}
			}
		}
	}
	if in.steps.Add(1)&in.cfg.PerturbMask == 0 {
		in.perturbs.Add(1)
		runtime.Gosched()
	}
}

func (in *injector) install()   { rt.SetHook(in.hook) }
func (in *injector) uninstall() { rt.SetHook(nil); in.stallOff.Store(true) }

// auditStats fills the ledger's accounting section and appends every
// violated condition: zero faults, retired == freed + pending, and — for
// reclaiming subjects after a full drain — Live back at baseline with an
// empty pending list.
func (v *Verdict) auditStats(ad bench.Admin) {
	snap := ad.Stats()
	v.Arena = snap.Arena()
	v.Scheme = snap.Scheme()
	v.Reclaiming = ad.Reclaiming()
	if scan, ok := snap.Scan(); ok {
		v.Scan = scan
		// Clamp invariant: wherever the adaptive policy left the retire
		// threshold, it must sit inside the engine's clamps.
		if v.Scan.MaxThreshold > 0 &&
			(v.Scan.Threshold < v.Scan.MinThreshold || v.Scan.Threshold > v.Scan.MaxThreshold) {
			v.failf("scan threshold %d outside clamps [%d, %d]",
				v.Scan.Threshold, v.Scan.MinThreshold, v.Scan.MaxThreshold)
		}
	}
	if v.Arena.Faults != 0 {
		v.failf("arena recorded %d stale-dereference faults (want 0)", v.Arena.Faults)
	}
	if ad.ExactPending() {
		if got, want := v.Scheme.RetiredNotFreed, int64(v.Scheme.Retired)-int64(v.Scheme.Freed); got != want {
			v.failf("scheme accounting broken: retired(%d) - freed(%d) = %d, but pending = %d",
				v.Scheme.Retired, v.Scheme.Freed, want, got)
		}
	}
	if int64(v.Arena.Allocs)-int64(v.Arena.Frees) != v.Arena.Live {
		v.failf("arena accounting broken: allocs(%d) - frees(%d) != live(%d)",
			v.Arena.Allocs, v.Arena.Frees, v.Arena.Live)
	}
	if ad.Reclaiming() {
		if v.Arena.Live != v.Baseline {
			v.failf("leak: live=%d after drain, baseline=%d (delta %+d, pending=%d)",
				v.Arena.Live, v.Baseline, v.Arena.Live-v.Baseline, v.Scheme.RetiredNotFreed)
		}
		if ad.ExactPending() && v.Scheme.RetiredNotFreed != 0 {
			v.failf("quiesce left %d retired objects pending", v.Scheme.RetiredNotFreed)
		}
	} else {
		// Leaking subjects still satisfy conservation: everything missing
		// from the arena ledger is parked on the scheme's leak list.
		if v.Scheme.Retired > 0 && v.Arena.Live-v.Baseline < v.Scheme.RetiredNotFreed {
			v.failf("leak conservation broken: live-baseline=%d < pending=%d",
				v.Arena.Live-v.Baseline, v.Scheme.RetiredNotFreed)
		}
	}
}
