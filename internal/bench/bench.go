// Package bench is the benchmark harness that regenerates the paper's
// evaluation: workload generators, subject registry (every queue and set
// under every applicable reclamation configuration), timed runners with
// per-thread padded counters, and the per-figure drivers used by
// cmd/orcbench, the artifact-named binaries, and the root bench_test.go.
package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/reclaim"
	"repro/internal/rt"
)

// Set is the membership interface every set-shaped subject implements.
type Set interface {
	Insert(tid int, key uint64) bool
	Remove(tid int, key uint64) bool
	Contains(tid int, key uint64) bool
}

// Queue is the FIFO interface every queue-shaped subject implements.
type Queue interface {
	Enqueue(tid int, item uint64)
	Dequeue(tid int) (uint64, bool)
}

// MemStats is the memory snapshot a subject can report after a run.
type MemStats struct {
	Live            int64 // objects allocated and not freed
	MaxLive         int64 // high-water mark
	RetiredNotFreed int64 // scheme-side pending count (manual schemes)
}

// Admin is the control surface the torture harness drives: fault
// injection before a run, quiescing between phases, and the accounting
// audit afterwards. The benchmark runners never touch it; registry
// constructors build one (via Hooks) so any subject reachable by name
// can be tortured.
type Admin interface {
	// Stats returns the subject's read-only accounting view.
	Stats() Snapshot
	// Faults returns the subject's fault-injection controls.
	Faults() FaultController
	// Quiesce drains pending reclamation: clears every thread's
	// protections and flushes retired lists to a fixed point. Quiescent
	// use only — no concurrent subject operations may be in flight.
	Quiesce()
	// Reclaiming reports whether retired objects are eventually freed
	// (false for the "none" scheme and the leak baselines), i.e. whether
	// Live is expected back at baseline after Quiesce.
	Reclaiming() bool
	// ExactPending reports whether Scheme stats count distinct objects,
	// making retired == freed + pending an invariant. Manual schemes
	// qualify; OrcGC does not — its retire counter ticks once per retire
	// *event*, and ownership re-negotiation (clearBitRetired) or a
	// handover can route one object through several events.
	ExactPending() bool
}

// Snapshot is Admin's read side: every accounting surface the audit
// consults, behind one coherent view.
type Snapshot interface {
	// Arena snapshots the subject's allocator counters.
	Arena() arena.Stats
	// Scheme snapshots retire/free accounting (synthesized from Domain
	// counters for OrcGC subjects; zero-valued for leak subjects that
	// bypass the reclaim layer entirely).
	Scheme() reclaim.Stats
	// Scan snapshots scan-engine and protection fast-path accounting
	// (adaptive threshold position, elision hits); ok is false for
	// subjects with neither (the leak baselines).
	Scan() (st reclaim.ScanStats, ok bool)
	// Cluster snapshots proxy-level counters (routed ops, hedges
	// fired/won, breaker trips, rebalance keys moved) when the subject
	// fronts a cluster proxy; nil for single-store subjects.
	Cluster() map[string]int64
}

// FaultController is Admin's fault-injection side.
type FaultController interface {
	// SetMode flips the subject's arena between Strict (panic on stale
	// dereference) and Count (record and survive) at runtime.
	SetMode(arena.FaultMode)
	// SetHook installs a callback invoked on every counted fault; nil
	// uninstalls.
	SetHook(func(arena.Handle))
}

// Hooks is the function-field Admin implementation the registry (and
// ad-hoc torture subjects) assemble. Nil function fields degrade to
// no-ops or zero values, so a subject only wires the surfaces it has.
type Hooks struct {
	FaultMode    func(arena.FaultMode)
	FaultHook    func(func(arena.Handle))
	ArenaStats   func() arena.Stats
	SchemeStats  func() reclaim.Stats
	ScanStats    func() reclaim.ScanStats // nil: no scan engine
	ClusterStats func() map[string]int64  // nil: single-store subject
	QuiesceFn    func()
	Reclaims     bool
	ExactCounts  bool
}

func (h *Hooks) Stats() Snapshot         { return hookSnapshot{h} }
func (h *Hooks) Faults() FaultController { return hookFaults{h} }

func (h *Hooks) Quiesce() {
	if h.QuiesceFn != nil {
		h.QuiesceFn()
	}
}

func (h *Hooks) Reclaiming() bool   { return h.Reclaims }
func (h *Hooks) ExactPending() bool { return h.ExactCounts }

type hookSnapshot struct{ h *Hooks }

func (s hookSnapshot) Arena() arena.Stats {
	if s.h.ArenaStats == nil {
		return arena.Stats{}
	}
	return s.h.ArenaStats()
}

func (s hookSnapshot) Scheme() reclaim.Stats {
	if s.h.SchemeStats == nil {
		return reclaim.Stats{}
	}
	return s.h.SchemeStats()
}

func (s hookSnapshot) Scan() (reclaim.ScanStats, bool) {
	if s.h.ScanStats == nil {
		return reclaim.ScanStats{}, false
	}
	return s.h.ScanStats(), true
}

func (s hookSnapshot) Cluster() map[string]int64 {
	if s.h.ClusterStats == nil {
		return nil
	}
	return s.h.ClusterStats()
}

type hookFaults struct{ h *Hooks }

func (f hookFaults) SetMode(m arena.FaultMode) {
	if f.h.FaultMode != nil {
		f.h.FaultMode(m)
	}
}

func (f hookFaults) SetHook(fn func(arena.Handle)) {
	if f.h.FaultHook != nil {
		f.h.FaultHook(fn)
	}
}

// SetInstance bundles a set subject with its accounting hooks.
type SetInstance struct {
	Set   Set
	Mem   func() MemStats
	Admin Admin
}

// QueueInstance bundles a queue subject with its accounting hooks.
type QueueInstance struct {
	Queue Queue
	Mem   func() MemStats
	Admin Admin
	// Drain empties the queue and releases its structural roots
	// (sentinels, per-thread descriptor arrays); quiescent use only.
	// Nil for subjects without a teardown path (the leak baselines).
	Drain func(tid int)
	// DrainDropsRoots reports whether Drain releases every root, so a
	// reclaiming subject's arena Live is expected at 0 afterwards
	// rather than at the post-construction baseline.
	DrainDropsRoots bool
}

// Mix is an operation mix in percent; the remainder is Contains.
type Mix struct {
	InsertPct int
	RemovePct int
}

// String renders the mix the way the paper labels its plots.
func (m Mix) String() string {
	return fmt.Sprintf("%di-%dr-%dc", m.InsertPct, m.RemovePct, 100-m.InsertPct-m.RemovePct)
}

// The paper's three workloads (Figures 3–8).
var (
	MixWrite = Mix{InsertPct: 50, RemovePct: 50}
	MixRead  = Mix{InsertPct: 5, RemovePct: 5}
	MixRO    = Mix{InsertPct: 0, RemovePct: 0}
)

// Result of one measurement point.
type Result struct {
	OpsPerSec float64
	Runs      []float64
	Mem       MemStats
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RunSet measures a set subject: prefill half the key range, then
// threads hammer the mix for dur; repeated runs times on fresh
// instances. Returned throughput is total operations per second.
func RunSet(factory func(threads int) SetInstance, threads int, keys uint64, mix Mix, dur time.Duration, runs int) Result {
	if runs <= 0 {
		runs = 1
	}
	var res Result
	// Prefill to 50% occupancy in *shuffled* order — ascending insertion
	// would degenerate the unbalanced external BST into a linear chain.
	stride := uint64(0x9E3779B9) | 1
	for gcd(stride, keys) != 1 {
		stride += 2
	}
	for r := 0; r < runs; r++ {
		inst := factory(threads)
		for i := uint64(0); i < keys; i++ {
			k := (i * stride) % keys
			if k%2 == 0 {
				inst.Set.Insert(0, k+1)
			}
		}
		ops := make([]rt.PaddedUint64, threads)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := rt.NewPCG(uint64(tid)*0x9E3779B97F4A7C15 + uint64(r) + 1)
				n := uint64(0)
				for !stop.Load() {
					x := rng.Next()
					k := x%keys + 1
					p := int((x >> 32) % 100)
					switch {
					case p < mix.InsertPct:
						inst.Set.Insert(tid, k)
					case p < mix.InsertPct+mix.RemovePct:
						inst.Set.Remove(tid, k)
					default:
						inst.Set.Contains(tid, k)
					}
					n++
				}
				ops[tid].Store(n)
			}(w)
		}
		start := time.Now()
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		total := uint64(0)
		for i := range ops {
			total += ops[i].Load()
		}
		res.Runs = append(res.Runs, float64(total)/elapsed)
		if inst.Mem != nil {
			res.Mem = inst.Mem()
		}
	}
	res.OpsPerSec = mean(res.Runs)
	return res
}

// RunQueuePairs measures a queue subject with the paper's queue
// workload: every thread performs enqueue/dequeue pairs for dur.
// Throughput counts individual operations (2 per pair).
func RunQueuePairs(factory func(threads int) QueueInstance, threads int, dur time.Duration, runs int) Result {
	if runs <= 0 {
		runs = 1
	}
	var res Result
	for r := 0; r < runs; r++ {
		inst := factory(threads)
		// Seed a little so dequeues don't always race an empty queue.
		for i := uint64(0); i < 64; i++ {
			inst.Queue.Enqueue(0, i)
		}
		ops := make([]rt.PaddedUint64, threads)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				n := uint64(0)
				v := uint64(tid + 1)
				for !stop.Load() {
					inst.Queue.Enqueue(tid, v&0xFFFFFF)
					inst.Queue.Dequeue(tid)
					v++
					n += 2
				}
				ops[tid].Store(n)
			}(w)
		}
		start := time.Now()
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		total := uint64(0)
		for i := range ops {
			total += ops[i].Load()
		}
		res.Runs = append(res.Runs, float64(total)/elapsed)
		if inst.Mem != nil {
			res.Mem = inst.Mem()
		}
	}
	res.OpsPerSec = mean(res.Runs)
	return res
}

// ParseThreads parses a comma-separated list of thread counts — the
// flag syntax shared by every cmd binary.
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// Series is one labelled line of a figure: thread count → value.
type Series struct {
	Name   string
	Points map[int]float64
}

// SortedThreads returns the union of thread counts across series.
func SortedThreads(series []Series) []int {
	seen := map[int]bool{}
	for _, s := range series {
		for t := range s.Points {
			seen[t] = true
		}
	}
	var out []int
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
