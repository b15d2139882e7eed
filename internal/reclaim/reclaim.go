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
// resolves a name or alias against one static table in this file, in
// the paper's presentation order. The "Pointer Life Cycle Types" line
// of work argues protocol misuse is reclamation's chronic failure mode;
// a single factory entry point with an error return (and MustNew for
// static names) is this package's answer on the construction side.
//
// Every scheme embeds base (name, per-thread counters, no-op defaults)
// and overrides only what it does. HP, HE, IBR and EBR embed the retire
// engine (engine.go) and supply only a snapshot of what protects and a
// "still protected?" predicate; PTB and PTP keep their handover
// algorithms.
package reclaim

import (
	"fmt"
	"slices"
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
// RetiredNotFreed is exact. MaxRetiredNotFreed is exact for PTP, whose
// t(H+1) bound is checked against it; every other scheme reports the
// sum of per-thread peaks of retired − freed, an upper bound on the
// true peak that is exact with one thread.
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
	// count is Stats().RetiredNotFreed. Any goroutine may call it.
	RetireDepth(tid int) int
	Stats() Stats
}

// ---------------------------------------------------------------------
// Scheme table

// schemes is the factory's table, in the paper's presentation order
// (Names). Each build receives opts with defaults applied.
var schemes = []struct {
	name    string
	aliases []string // accepted synonyms ("leak" → "none")
	hidden  bool     // constructible but absent from Names() ("unsafe")
	build   func(Env, Options) Scheme
}{
	{name: "none", aliases: []string{"leak"}, build: func(e Env, o Options) Scheme { return newNone(e, o) }},
	{name: "hp", build: func(e Env, o Options) Scheme { return newHP(e, o, limits{}) }},
	{name: "ptb", build: func(e Env, o Options) Scheme { return newPTB(e, o) }},
	{name: "ptp", build: func(e Env, o Options) Scheme { return newPTP(e, o) }},
	{name: "ebr", build: func(e Env, o Options) Scheme { return newEBR(e, o) }},
	{name: "he", build: func(e Env, o Options) Scheme { return newHE(e, o, limits{}) }},
	{name: "ibr", aliases: []string{"2geibr"}, build: func(e Env, o Options) Scheme { return newIBR(e, o, limits{}) }},
	// unsafe is constructible for the UAF demo, not benchmarked.
	{name: "unsafe", hidden: true, build: func(e Env, o Options) Scheme { return newUnsafe(e, o) }},
}

// Names lists every non-hidden scheme in presentation order.
func Names() []string {
	var out []string
	for _, r := range schemes {
		if !r.hidden {
			out = append(out, r.name)
		}
	}
	return out
}

// find returns the table index of a scheme name or alias, or -1.
func find(name string) int {
	for i, r := range schemes {
		if r.name == name || slices.Contains(r.aliases, name) {
			return i
		}
	}
	return -1
}

// Canonical resolves a scheme name or alias ("leak"→"none",
// "2geibr"→"ibr") to its canonical form, reporting whether the name is
// known. It is the single scheme-by-name resolver shared by the bench
// registry, cmd flag parsing, and the kv service.
func Canonical(name string) (string, bool) {
	if i := find(name); i >= 0 {
		return schemes[i].name, true
	}
	return "", false
}

// New constructs a scheme by name (aliases accepted, see Canonical). An
// unknown name is an error, not a panic: scheme names arrive from flags
// and network config, and the factory is where they are validated.
func New(name string, env Env, opts Options) (Scheme, error) {
	i := find(name)
	if i < 0 {
		return nil, fmt.Errorf("reclaim: unknown scheme %q (have %v)", name, Names())
	}
	opts.defaults()
	s := schemes[i].build(env, opts)
	if opts.Metrics != nil {
		instrument(s, schemes[i].name, opts)
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
// base. All hot-path uses are guarded by a single nil check.
type instr struct {
	label   uint16    // trace-ring label id
	lat     *obs.Hist // sampled retire→free latency (ns)
	scanLat *obs.Hist // scan duration (ns), one observation per scan
	spans   spanTable
}

// threadCounters is one thread's share of a scheme's Stats, written
// only by that thread (inc: a plain load and store, no read-modify-write
// on a shared line) and summed by readers.
type threadCounters struct {
	retired, freed atomic.Uint64
	peak           atomic.Int64  // high-water of retired − freed on this thread
	elide          atomic.Uint64 // elided protection publishes
	depth          atomic.Int64  // RetireDepth, stored after each change
	_              [rt.CacheLine - 40]byte
}

// inc bumps a counter only its owning thread writes.
func inc(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// base is embedded by every scheme: its name, its arena binding and
// options, the per-thread counters behind Stats and ScanStats, the
// optional instrumentation, and a no-op for every Scheme method a
// scheme has no use for.
type base struct {
	name string
	env  Env
	cfg  Options
	tc   []threadCounters
	inst *instr // nil unless Options.Metrics was set
}

func newBase(name string, env Env, cfg Options) base {
	cfg.defaults()
	return base{name: name, env: env, cfg: cfg, tc: make([]threadCounters, cfg.MaxThreads)}
}

// hooks exposes the embedded base to the factory's instrumentation.
func (b *base) hooks() *base { return b }

// Name returns the scheme's canonical name.
func (b *base) Name() string { return b.name }

// BeginOp is a no-op unless the scheme overrides it.
func (*base) BeginOp(int) {}

// EndOp is a no-op unless the scheme overrides it.
func (*base) EndOp(int) {}

// Protect is a no-op unless the scheme overrides it.
func (*base) Protect(int, int, arena.Handle) {}

// Clear is a no-op unless the scheme overrides it.
func (*base) Clear(int, int) {}

// ClearAll is a no-op unless the scheme overrides it.
func (*base) ClearAll(int) {}

// OnAlloc is a no-op unless the scheme overrides it.
func (*base) OnAlloc(arena.Handle) {}

// Flush is a no-op unless the scheme overrides it.
func (*base) Flush(int) {}

// RetireDepth reports the deferred objects the scheme holds for tid, as
// last stored by tid itself, so any goroutine may read it. Zero for
// schemes that defer nothing.
func (b *base) RetireDepth(tid int) int { return int(b.tc[tid].depth.Load()) }

func (b *base) setDepth(tid, n int) { b.tc[tid].depth.Store(int64(n)) }

func (b *base) noteElide(tid int) { inc(&b.tc[tid].elide) }

func (b *base) onRetire(tid int, h arena.Handle) {
	rt.Step(rt.SiteRetire, tid)
	c := &b.tc[tid]
	n := c.retired.Load() + 1
	c.retired.Store(n)
	if d := int64(n - c.freed.Load()); d > c.peak.Load() {
		c.peak.Store(d)
	}
	if in := b.inst; in != nil {
		if obs.TraceOn() {
			obs.Trace.Record(obs.KindRetire, in.label, tid, uint64(h.Unmarked()))
		}
		if n&spanSampleMask == 0 {
			in.spans.start(uint64(h.Unmarked()), time.Now().UnixNano())
		}
	}
}

func (b *base) onFree(tid int, h arena.Handle) {
	rt.Step(rt.SiteReclaim, tid)
	inc(&b.tc[tid].freed)
	if in := b.inst; in != nil {
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

// Stats sums the per-thread counters. Every freed count is read before
// any retired count, and an object's retire is counted before its free,
// so RetiredNotFreed never reads negative.
func (b *base) Stats() Stats {
	var s Stats
	for i := range b.tc {
		s.Freed += b.tc[i].freed.Load()
	}
	for i := range b.tc {
		s.Retired += b.tc[i].retired.Load()
		s.MaxRetiredNotFreed += b.tc[i].peak.Load()
	}
	s.RetiredNotFreed = int64(s.Retired) - int64(s.Freed)
	return s
}

// ScanStats reports the elided protection publishes; the retire engine
// adds its scan counters.
func (b *base) ScanStats() ScanStats {
	var s ScanStats
	for i := range b.tc {
		s.Elisions += b.tc[i].elide.Load()
	}
	return s
}

// instrument wires one constructed scheme into opts.Metrics under
// "reclaim/<label>/...". The retired/freed/pending/retire_depth figures
// are gauge funcs over state the scheme maintains anyway, so the hot
// path pays only for the latency sampling and (when enabled) the trace
// ring.
func instrument(s Scheme, canonical string, opts Options) {
	label := opts.Label
	if label == "" {
		label = canonical
	}
	prefix := "reclaim/" + label
	b := s.(interface{ hooks() *base }).hooks()
	b.inst = &instr{
		label: obs.TraceLabel(label),
		lat:   opts.Metrics.Hist(prefix + "/free_lat_ns"),
	}
	opts.Metrics.GaugeFunc(prefix+"/retired", func() int64 { return int64(s.Stats().Retired) })
	opts.Metrics.GaugeFunc(prefix+"/freed", func() int64 { return int64(s.Stats().Freed) })
	opts.Metrics.GaugeFunc(prefix+"/pending", func() int64 { return s.Stats().RetiredNotFreed })
	opts.Metrics.GaugeFunc(prefix+"/pending_max", func() int64 { return s.Stats().MaxRetiredNotFreed })
	maxThreads := opts.MaxThreads
	opts.Metrics.GaugeFunc(prefix+"/retire_depth", func() int64 {
		var d int64
		for t := 0; t < maxThreads; t++ {
			d += int64(s.RetireDepth(t))
		}
		return d
	})
	ss := s.(ScanStatser)
	b.inst.scanLat = opts.Metrics.Hist(prefix + "/scan_ns")
	opts.Metrics.GaugeFunc(prefix+"/elisions", func() int64 { return int64(ss.ScanStats().Elisions) })
	opts.Metrics.GaugeFunc(prefix+"/scans", func() int64 { return int64(ss.ScanStats().Scans) })
	opts.Metrics.GaugeFunc(prefix+"/scan_freed_ratio_bp", func() int64 { return ss.ScanStats().FreedRatioBP })
	opts.Metrics.GaugeFunc(prefix+"/scan_threshold", func() int64 { return int64(ss.ScanStats().Threshold) })
	registerScanDebug(label, ss.ScanStats)
}
