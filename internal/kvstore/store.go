// Package kvstore is orcstore: an in-memory key/value store built from
// the repo's lock-free maps, generic over reclamation scheme. Point ops
// (Get/Put/Del) go to a sharded hash map, which is authoritative and
// alone holds the values. One skip list per store (ordered Scan) holds
// every key, written only when Put inserts a key or Del removes one; a
// Scan is one walk of it, reading each value back from the hash map.
// Once quiet the skip list holds every key, plus perhaps a few ghost
// keys the hash map lost to a Del/Put race; Scan skips them.
// The store exists to put every reclamation scheme under real traffic —
// long-lived connections, pipelined mixed workloads, range scans that
// pin epochs — rather than the closed-loop microbenchmark shape.
//
// Scheme wiring per mode:
//
//	orcgc        OrcMap shards + CRF skip list (fully automatic)
//	ebr, none    ManualMap shards + HS skip list
//	hp, ptb,     ManualMap shards + HS skip list under EBR — the HS list's
//	ptp, he, ibr wait-free traversal walks through removed nodes with no
//	             per-pointer validation window, so pointer-based schemes
//	             cannot protect it (the paper's §2 second obstacle); the
//	             scan index falls back to epochs while the point index
//	             runs the requested scheme.
package kvstore

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/skiplist"
	"repro/internal/obs"
	"repro/internal/reclaim"
)

// MinKey and MaxKey bound the valid key space; 0 and ^uint64(0) are the
// skip-list head/tail sentinels.
const (
	MinKey = uint64(1)
	MaxKey = ^uint64(0) - 1
)

// Config sizes a Store.
type Config struct {
	Scheme     string // "orcgc" or any reclaim scheme name/alias
	Shards     int    // power of two; default 8
	Buckets    int    // hash buckets per shard; default 1024
	MaxThreads int    // tid space shared by every index; default 64

	// Metrics, when non-nil, registers the store's gauges ("kv/live",
	// "kv/occupancy_bp", "kv/mag_hit_rate_bp", …) and threads per-index
	// labels ("shardN/map") into the reclamation layer so every manual
	// scheme instance reports under its own prefix. Nil (the default)
	// costs the data path nothing.
	Metrics *obs.Registry
}

func (c *Config) defaults() error {
	if c.Scheme == "" {
		c.Scheme = "orcgc"
	}
	if c.Scheme != "orcgc" {
		canon, ok := reclaim.Canonical(c.Scheme)
		if !ok || canon == "unsafe" {
			return fmt.Errorf("kvstore: unknown scheme %q", c.Scheme)
		}
		c.Scheme = canon
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("kvstore: shards must be a power of two, got %d", c.Shards)
	}
	if c.Buckets <= 0 {
		c.Buckets = 1024
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 64
	}
	return nil
}

// pointIndex is the hash-map face of a shard.
type pointIndex interface {
	Put(tid int, key, val uint64) bool
	Get(tid int, key uint64) (uint64, bool)
	Remove(tid int, key uint64) bool
	Keys(emit func(key uint64)) // quiescent use only
}

// scanIndex is the store's skip list: an ordered key set (Scan emits
// zero values).
type scanIndex interface {
	Insert(tid int, key uint64) bool
	Remove(tid int, key uint64) bool
	Scan(tid int, from uint64, limit int, emit func(k, v uint64) bool) int
}

// Store is the sharded KV store. All methods are safe for concurrent
// use; the tid identifies the calling thread to the reclamation layer
// and must be unique among concurrently operating callers.
type Store struct {
	cfg       Config
	shardMask uint64
	shards    []pointIndex
	scan      scanIndex
	stats     func() []SideStats // per-index stats collectors
	flush     func(tid int)      // one best-effort drain round over every index
	baseline  int64              // total arena Live right after New
}

// Modes lists every scheme a Store can be built with.
func Modes() []string {
	return append([]string{"orcgc"}, reclaim.Names()...)
}

// New builds a Store. tid 0 is used for construction.
func New(cfg Config) (*Store, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, shardMask: uint64(cfg.Shards - 1)}
	st.shards = make([]pointIndex, cfg.Shards)

	var collect []func() SideStats
	var flushers []func(tid int)
	var arenas []func() arena.Stats
	addOrc := func(label string, ar func() arena.Stats, flushAll func()) {
		collect = append(collect, orcSide(label, "orcgc", ar))
		arenas = append(arenas, ar)
		flushers = append(flushers, func(int) { flushAll() })
	}
	addManual := func(label, scheme string, ar func() arena.Stats, s reclaim.Scheme) {
		collect = append(collect, manualSide(label, scheme, ar, s, cfg.MaxThreads))
		arenas = append(arenas, ar)
		flushers = append(flushers, func(tid int) { s.ClearAll(tid); s.Flush(tid) })
	}
	dc := core.DomainConfig{MaxThreads: cfg.MaxThreads}
	opts := func(label string) reclaim.Options {
		return reclaim.Options{MaxThreads: cfg.MaxThreads, Label: label, Metrics: cfg.Metrics}
	}
	for i := range st.shards {
		label := fmt.Sprintf("shard%d/map", i)
		if cfg.Scheme == "orcgc" {
			m := hashmap.NewOrc(0, cfg.Buckets, dc)
			st.shards[i] = m
			addOrc(label, m.Domain().Arena().Stats, m.Domain().FlushAll)
		} else {
			m := hashmap.NewManual(cfg.Scheme, cfg.Buckets, opts(label))
			st.shards[i] = m
			addManual(label, cfg.Scheme, m.Arena().Stats, m.Scheme())
		}
	}
	if cfg.Scheme == "orcgc" {
		s := skiplist.NewCRFOrc(0, dc)
		st.scan = s
		addOrc("skip", s.Domain().Arena().Stats, s.Domain().FlushAll)
	} else {
		scanScheme := cfg.Scheme
		if scanScheme != "ebr" && scanScheme != "none" {
			scanScheme = "ebr" // §2 fallback, see package comment
		}
		s := skiplist.NewHSManual(scanScheme, opts("skip"))
		st.scan = s
		addManual("skip", scanScheme, s.Arena().Stats, s.Scheme())
	}
	st.stats = func() []SideStats {
		out := make([]SideStats, len(collect))
		for i, f := range collect {
			out[i] = f()
		}
		return out
	}
	st.flush = func(tid int) {
		for _, f := range flushers {
			f(tid)
		}
	}
	st.baseline = st.live()
	st.instrument(arenas)
	return st, nil
}

// arenaStats sums arena counters over every index — evaluated at scrape
// time only (each call walks the per-tid magazine counters).
func sumArenaStats(arenas []func() arena.Stats) arena.Stats {
	var sum arena.Stats
	for _, f := range arenas {
		a := f()
		sum.Allocs += a.Allocs
		sum.Frees += a.Frees
		sum.Live += a.Live
		sum.MaxLive += a.MaxLive
		sum.Faults += a.Faults
		sum.Slots += a.Slots
		sum.MagRefills += a.MagRefills
		sum.MagSpills += a.MagSpills
		sum.MagSteals += a.MagSteals
	}
	return sum
}

// instrument registers the store-wide gauge funcs. All figures are
// computed at scrape time from state the store maintains anyway; the
// data path is untouched, which is how the instrumented store stays
// within the <2% overhead budget.
func (st *Store) instrument(arenas []func() arena.Stats) {
	reg := st.cfg.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("kv/live", func() int64 { return st.live() })
	reg.GaugeFunc("kv/baseline", func() int64 { return st.baseline })
	reg.GaugeFunc("kv/retired_not_freed", func() int64 { return st.RetiredNotFreed() })
	reg.GaugeFunc("kv/retire_depth", func() int64 {
		var d int64
		for _, s := range st.stats() {
			d += int64(s.RetireDepth)
		}
		return d
	})
	reg.GaugeFunc("kv/arena/live", func() int64 { return sumArenaStats(arenas).Live })
	reg.GaugeFunc("kv/arena/slots", func() int64 { return int64(sumArenaStats(arenas).Slots) })
	// Ratios land as basis points (×10⁴) so they fit integer gauges.
	reg.GaugeFunc("kv/arena/occupancy_bp", func() int64 {
		return int64(sumArenaStats(arenas).Occupancy() * 1e4)
	})
	reg.GaugeFunc("kv/arena/mag_hit_rate_bp", func() int64 {
		return int64(sumArenaStats(arenas).MagHitRate() * 1e4)
	})
	reg.GaugeFunc("kv/arena/mag_refills", func() int64 { return int64(sumArenaStats(arenas).MagRefills) })
	reg.GaugeFunc("kv/arena/mag_steals", func() int64 { return int64(sumArenaStats(arenas).MagSteals) })
}

// Scheme reports the canonical scheme the store was built with.
func (st *Store) Scheme() string { return st.cfg.Scheme }

// MaxThreads reports the tid capacity.
func (st *Store) MaxThreads() int { return st.cfg.MaxThreads }

// shardOf spreads keys across shards by Fibonacci hashing so adjacent
// keys land on different shards.
func (st *Store) shardOf(key uint64) pointIndex {
	return st.shards[(key*0x9e3779b97f4a7c15)>>32&st.shardMask]
}

func validKey(key uint64) bool { return key >= MinKey && key <= MaxKey }

// Put inserts or updates key; true when newly inserted. An update
// touches only the point index.
func (st *Store) Put(tid int, key, val uint64) (bool, error) {
	if !validKey(key) {
		return false, fmt.Errorf("kvstore: key %d out of range", key)
	}
	ins := st.shardOf(key).Put(tid, key, val)
	if ins {
		st.scan.Insert(tid, key)
	}
	return ins, nil
}

// Get returns the value under key.
func (st *Store) Get(tid int, key uint64) (uint64, bool, error) {
	if !validKey(key) {
		return 0, false, fmt.Errorf("kvstore: key %d out of range", key)
	}
	v, ok := st.shardOf(key).Get(tid, key)
	return v, ok, nil
}

// Del removes key; true if it was present. A Put re-inserting key between
// the point and scan removes is caught by the re-check, which restores it.
func (st *Store) Del(tid int, key uint64) (bool, error) {
	if !validKey(key) {
		return false, fmt.Errorf("kvstore: key %d out of range", key)
	}
	point := st.shardOf(key)
	ok := point.Remove(tid, key)
	if ok {
		st.scan.Remove(tid, key)
		if _, back := point.Get(tid, key); back {
			st.scan.Insert(tid, key)
		}
	}
	return ok, nil
}

// Scan emits up to limit pairs with key ≥ from in ascending key order:
// one walk of the scan index from from, reading each value from the
// point index and skipping ghost keys, stopped once limit pairs are in.
func (st *Store) Scan(tid int, from uint64, limit int) ([]uint64, error) {
	if limit <= 0 {
		return nil, nil
	}
	out := make([]uint64, 0, 2*limit)
	st.scan.Scan(tid, from, math.MaxInt, func(k, _ uint64) bool {
		if v, ok := st.shardOf(k).Get(tid, k); ok {
			out = append(out, k, v)
		}
		return len(out) < 2*limit
	})
	return out, nil
}

// live sums arena Live over every index.
func (st *Store) live() int64 {
	var n int64
	for _, s := range st.stats() {
		n += s.Live
	}
	return n
}
