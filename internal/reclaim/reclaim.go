// Package reclaim implements the manual lock-free memory reclamation
// schemes compared in the paper's evaluation: hazard pointers (HP),
// pass-the-buck (PTB), the paper's pass-the-pointer (PTP, §3.1 /
// Algorithm 2), epoch-based reclamation (EBR), hazard eras (HE),
// two-generation interval-based reclamation (2GEIBR), plus a leaking
// baseline (None) and a deliberately unsafe scheme used to demonstrate
// that the arena's generation check catches use-after-free.
//
// All schemes operate on arena.Handle references. A data structure built
// on a scheme follows the classic manual protocol: GetProtected before
// dereferencing a shared link, Retire once a node is unreachable,
// ClearAll when an operation finishes.
//
// Schemes are constructed through the factory: New(name, env, opts)
// resolves a name or alias against a self-registering registry (each
// scheme file Registers itself in init), so adding a scheme never means
// touching a switch statement in the callers. The "Pointer Life Cycle
// Types" line of work argues protocol misuse is reclamation's chronic
// failure mode; a single factory entry point with an error return (and
// MustNew for static names) is this package's answer on the
// construction side.
package reclaim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/rt"
)

// Env binds a scheme to the arena holding its objects.
type Env struct {
	// Free returns an object to the allocator. Called exactly once per
	// retired object, at a point where the scheme has proven no thread
	// can still dereference it. The tid is the reclaiming thread's id:
	// arena.FreeT uses it to return the slot to that thread's magazine
	// cache, keeping the scheme's free path off the shared free lists.
	Free func(tid int, h arena.Handle)
	// Hdr exposes the object's two scheme header words (birth/retire
	// eras for HE and IBR). May be nil for schemes that keep no
	// per-object state.
	Hdr func(arena.Handle) (*atomic.Uint64, *atomic.Uint64)
}

// Options sizes a scheme's per-thread structures and, optionally, wires
// the instance into the observability layer.
type Options struct {
	MaxThreads int // capacity of the tid space
	MaxHPs     int // H: hazardous pointers per thread the structure needs

	// ScanThreshold overrides the scheme's classic base retire threshold
	// (HP: 2·H·t, HE/IBR: H·t, each floored at 64). The adaptive policy
	// still moves the per-thread threshold from this base within its
	// clamps; deterministic tests use a small override to force scans.
	// 0 means the classic default.
	ScanThreshold int

	// Label namespaces this instance's metrics (e.g. "shard0/map");
	// empty defaults to the scheme name. Ignored when Metrics is nil.
	Label string
	// Metrics, when non-nil, registers this instance's reclamation
	// pressure under "reclaim/<Label>/..." (retired, freed, pending,
	// retire_depth gauges — evaluated at scrape, costing the hot path
	// nothing) and enables the sampled retire→free latency histogram
	// and the trace-ring hooks. Nil (the default) leaves every hot
	// path uninstrumented.
	Metrics *obs.Registry
}

func (c *Options) defaults() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 64
	}
	if c.MaxHPs <= 0 {
		c.MaxHPs = 8
	}
}

// Stats reports a scheme's reclamation pressure. RetiredNotFreed and
// MaxRetiredNotFreed are the quantities bounded by the paper's Table 1.
type Stats struct {
	Retired            uint64
	Freed              uint64
	RetiredNotFreed    int64
	MaxRetiredNotFreed int64
}

// Scheme is the manual reclamation interface shared by all schemes.
//
// GetProtected loads *addr and protects the referenced object in slot
// idx of the calling thread's hazardous-pointer array, looping until the
// published protection is validated against addr. The returned handle
// keeps whatever tag bits were stored. Protect publishes an
// already-loaded handle without validation (safe only when the object is
// already protected through another slot or otherwise pinned). Clear
// resets one slot; ClearAll resets every slot of the thread and must be
// called when an operation completes. Retire hands over an unreachable
// object; BeginOp/EndOp bracket a data-structure operation (meaningful
// for the epoch- and era-based schemes, no-ops elsewhere). OnAlloc
// stamps a freshly allocated object (era schemes); structures call it
// right after arena.Alloc.
type Scheme interface {
	Name() string
	BeginOp(tid int)
	EndOp(tid int)
	GetProtected(tid, idx int, addr *atomic.Uint64) arena.Handle
	Protect(tid, idx int, h arena.Handle)
	Clear(tid, idx int)
	ClearAll(tid int)
	Retire(tid int, h arena.Handle)
	OnAlloc(h arena.Handle)
	// Flush makes a best effort to drain this thread's deferred frees;
	// tests call it at quiescent points.
	Flush(tid int)
	// RetireDepth reports how many retired-but-not-yet-freed objects the
	// scheme currently holds on behalf of tid (thread-local retired/limbo
	// list length, or parked handover slots for the list-free schemes).
	// Zero for schemes that keep no per-thread state; the global pending
	// count is Stats().RetiredNotFreed.
	RetireDepth(tid int) int
	Stats() Stats
}

// ---------------------------------------------------------------------
// Scheme registry

// Builder constructs one scheme instance. opts arrives with defaults
// applied.
type Builder func(env Env, opts Options) Scheme

// Registration describes a scheme to the factory.
type Registration struct {
	Name    string   // canonical name
	Aliases []string // accepted synonyms ("leak" → "none")
	Rank    int      // position in Names() — the paper's presentation order
	Hidden  bool     // constructible but absent from Names() ("unsafe")
	Build   Builder
}

var (
	regMu   sync.RWMutex
	schemes = map[string]Registration{}
	aliases = map[string]string{}
)

// Register adds a scheme to the factory. Each scheme file calls it from
// init, so the registry is complete before any New. Registering a
// duplicate name or alias panics — it is a programming error, caught at
// process start.
func Register(r Registration) {
	regMu.Lock()
	defer regMu.Unlock()
	if r.Name == "" || r.Build == nil {
		panic("reclaim: Register needs a name and a builder")
	}
	if _, dup := schemes[r.Name]; dup {
		panic(fmt.Sprintf("reclaim: scheme %q registered twice", r.Name))
	}
	if _, dup := aliases[r.Name]; dup {
		panic(fmt.Sprintf("reclaim: scheme %q collides with an alias", r.Name))
	}
	schemes[r.Name] = r
	for _, a := range r.Aliases {
		if _, dup := aliases[a]; dup {
			panic(fmt.Sprintf("reclaim: alias %q registered twice", a))
		}
		if _, dup := schemes[a]; dup {
			panic(fmt.Sprintf("reclaim: alias %q collides with a scheme", a))
		}
		aliases[a] = r.Name
	}
}

// Names lists every registered, non-hidden scheme in presentation order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	regs := make([]Registration, 0, len(schemes))
	for _, r := range schemes {
		if !r.Hidden {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Rank < regs[j].Rank })
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.Name
	}
	return out
}

// Canonical resolves a scheme name or alias ("leak"→"none",
// "2geibr"→"ibr") to its canonical form, reporting whether the name is
// known. It is the single scheme-by-name resolver shared by the bench
// registry, cmd flag parsing, and the kv service.
func Canonical(name string) (string, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if _, ok := schemes[name]; ok {
		return name, true
	}
	if c, ok := aliases[name]; ok {
		return c, true
	}
	return "", false
}

func lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := aliases[name]; ok {
		name = c
	}
	r, ok := schemes[name]
	return r, ok
}

// New constructs a scheme by name (aliases accepted, see Canonical). An
// unknown name is an error, not a panic: scheme names arrive from flags
// and network config, and the factory is where they are validated.
func New(name string, env Env, opts Options) (Scheme, error) {
	reg, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("reclaim: unknown scheme %q (have %v)", name, Names())
	}
	opts.defaults()
	s := reg.Build(env, opts)
	if opts.Metrics != nil {
		instrument(s, reg.Name, opts)
	}
	return s, nil
}

// MustNew is New for statically known names; it panics on error.
// Data-structure constructors that take a scheme name from a trusted
// caller use it.
func MustNew(name string, env Env, opts Options) Scheme {
	s, err := New(name, env, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// ---------------------------------------------------------------------
// Shared counters + instrumentation

// spanSlots sizes the sampled retire→free latency table; spanSampleMask
// selects which retires start a span (1 in 64).
const (
	spanSlots      = 512
	spanSampleMask = 63
)

type spanSlot struct {
	h  atomic.Uint64
	ns atomic.Int64
}

// spanTable tracks a sampled subset of in-flight retirements so the
// free path can report how long objects sit on retired lists. Start
// claims an empty hash slot (occupied slots drop the sample — sampling
// is best-effort by design); end adopts the slot with one CAS.
type spanTable struct {
	slots [spanSlots]spanSlot
}

func spanHash(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> 32 }

func (t *spanTable) start(h uint64, ns int64) {
	s := &t.slots[spanHash(h)&(spanSlots-1)]
	if s.h.Load() != 0 {
		return
	}
	s.ns.Store(ns)
	s.h.CompareAndSwap(0, h)
}

func (t *spanTable) end(h uint64) (int64, bool) {
	s := &t.slots[spanHash(h)&(spanSlots-1)]
	if s.h.Load() != h || !s.h.CompareAndSwap(h, 0) {
		return 0, false
	}
	return s.ns.Load(), true
}

// instr is the optional per-instance observability state hanging off
// counters. All hot-path uses are guarded by a single nil check.
type instr struct {
	label   uint16    // trace-ring label id
	lat     *obs.Hist // sampled retire→free latency (ns)
	scanLat *obs.Hist // scan duration (ns), one observation per scan
	spans   spanTable
}

// counters implements the shared Stats bookkeeping.
type counters struct {
	retired atomic.Uint64
	freed   atomic.Uint64
	pending atomic.Int64
	maxPend atomic.Int64
	inst    *instr // nil unless Options.Metrics was set
}

// hooks exposes the embedded counters to the factory's instrumentation;
// it is promoted through embedding on every scheme.
func (c *counters) hooks() *counters { return c }

func (c *counters) onRetire(tid int, h arena.Handle) {
	rt.Step(rt.SiteRetire, tid)
	n := c.retired.Add(1)
	p := c.pending.Add(1)
	for {
		m := c.maxPend.Load()
		if p <= m || c.maxPend.CompareAndSwap(m, p) {
			break
		}
	}
	if in := c.inst; in != nil {
		if obs.TraceOn() {
			obs.Trace.Record(obs.KindRetire, in.label, tid, uint64(h.Unmarked()))
		}
		if n&spanSampleMask == 0 {
			in.spans.start(uint64(h.Unmarked()), time.Now().UnixNano())
		}
	}
}

func (c *counters) onFree(tid int, h arena.Handle) {
	rt.Step(rt.SiteReclaim, tid)
	c.freed.Add(1)
	c.pending.Add(-1)
	if in := c.inst; in != nil {
		if obs.TraceOn() {
			obs.Trace.Record(obs.KindFree, in.label, tid, uint64(h.Unmarked()))
		}
		if ns, ok := in.spans.end(uint64(h.Unmarked())); ok {
			if d := time.Now().UnixNano() - ns; d >= 0 {
				in.lat.Observe(uint64(d))
			}
		}
	}
}

// onScan records one scan's duration into the instance histogram; free
// outside the instrumented path (one nil check per scan, not per op).
func (c *counters) onScan(d time.Duration) {
	if in := c.inst; in != nil && in.scanLat != nil {
		in.scanLat.Observe(uint64(d.Nanoseconds()))
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		Retired:            c.retired.Load(),
		Freed:              c.freed.Load(),
		RetiredNotFreed:    c.pending.Load(),
		MaxRetiredNotFreed: c.maxPend.Load(),
	}
}

// instrument wires one constructed scheme into opts.Metrics under
// "reclaim/<label>/...". The retired/freed/pending/retire_depth figures
// are gauge funcs over state the scheme maintains anyway, so the hot
// path pays only for the latency sampling and (when enabled) the trace
// ring.
func instrument(s Scheme, canonical string, opts Options) {
	h, ok := s.(interface{ hooks() *counters })
	if !ok {
		return
	}
	label := opts.Label
	if label == "" {
		label = canonical
	}
	prefix := "reclaim/" + label
	c := h.hooks()
	c.inst = &instr{
		label: obs.TraceLabel(label),
		lat:   opts.Metrics.Hist(prefix + "/free_lat_ns"),
	}
	opts.Metrics.GaugeFunc(prefix+"/retired", func() int64 { return int64(c.retired.Load()) })
	opts.Metrics.GaugeFunc(prefix+"/freed", func() int64 { return int64(c.freed.Load()) })
	opts.Metrics.GaugeFunc(prefix+"/pending", func() int64 { return c.pending.Load() })
	opts.Metrics.GaugeFunc(prefix+"/pending_max", func() int64 { return c.maxPend.Load() })
	maxThreads := opts.MaxThreads
	opts.Metrics.GaugeFunc(prefix+"/retire_depth", func() int64 {
		var d int64
		for t := 0; t < maxThreads; t++ {
			d += int64(s.RetireDepth(t))
		}
		return d
	})
	if ss, ok := s.(ScanStatser); ok {
		c.inst.scanLat = opts.Metrics.Hist(prefix + "/scan_ns")
		opts.Metrics.GaugeFunc(prefix+"/elisions", func() int64 { return int64(ss.ScanStats().Elisions) })
		opts.Metrics.GaugeFunc(prefix+"/scans", func() int64 { return int64(ss.ScanStats().Scans) })
		opts.Metrics.GaugeFunc(prefix+"/scan_freed_ratio_bp", func() int64 { return ss.ScanStats().FreedRatioBP })
		opts.Metrics.GaugeFunc(prefix+"/scan_threshold", func() int64 { return int64(ss.ScanStats().Threshold) })
		registerScanDebug(label, ss.ScanStats)
	}
}
