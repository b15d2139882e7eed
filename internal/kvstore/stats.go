package kvstore

import (
	"math"

	"repro/internal/arena"
	"repro/internal/reclaim"
)

// SideStats reports one index's allocator and reclamation pressure.
type SideStats struct {
	Index           string `json:"index"`  // e.g. "shard0/map"
	Scheme          string `json:"scheme"` // scheme actually running this index
	Allocs          uint64 `json:"allocs"`
	Frees           uint64 `json:"frees"`
	Live            int64  `json:"live"`
	MaxLive         int64  `json:"max_live"`
	Slots           uint64 `json:"slots"`       // arena capacity carved so far
	MagRefills      uint64 `json:"mag_refills"` // magazine cold-path entries
	RetiredNotFreed int64  `json:"retired_not_freed"`
	RetireDepth     int    `json:"retire_depth"` // sum of per-tid retired-list lengths
}

// Stats is the store-wide snapshot served by the STATS op.
type Stats struct {
	Scheme   string      `json:"scheme"`
	Shards   int         `json:"shards"`
	Live     int64       `json:"live"`
	MaxLive  int64       `json:"max_live"`
	Baseline int64       `json:"baseline"` // arena Live right after construction
	Sides    []SideStats `json:"sides"`
}

// orcSide reports an orcgc index. RetiredNotFreed stays zero: the
// domain's retire counter counts retire *attempts* (ownership can be
// re-negotiated per Algorithm 5), so retires−frees is not a backlog;
// orcgc's reclamation debt shows up directly as arena Live above the
// logical population, and its leak verdict is Live == baseline.
func orcSide(index, scheme string, ar func() arena.Stats) func() SideStats {
	return func() SideStats {
		a := ar()
		return SideStats{
			Index: index, Scheme: scheme,
			Allocs: a.Allocs, Frees: a.Frees, Live: a.Live, MaxLive: a.MaxLive,
			Slots: a.Slots, MagRefills: a.MagRefills,
		}
	}
}

func manualSide(index, scheme string, ar func() arena.Stats, s reclaim.Scheme, maxThreads int) func() SideStats {
	return func() SideStats {
		a := ar()
		rs := s.Stats()
		depth := 0
		for t := 0; t < maxThreads; t++ {
			depth += s.RetireDepth(t)
		}
		return SideStats{
			Index: index, Scheme: scheme,
			Allocs: a.Allocs, Frees: a.Frees, Live: a.Live, MaxLive: a.MaxLive,
			Slots: a.Slots, MagRefills: a.MagRefills,
			RetiredNotFreed: rs.RetiredNotFreed,
			RetireDepth:     depth,
		}
	}
}

// Stats snapshots the whole store.
func (st *Store) Stats() Stats {
	sides := st.stats()
	out := Stats{
		Scheme:   st.cfg.Scheme,
		Shards:   st.cfg.Shards,
		Baseline: st.baseline,
		Sides:    sides,
	}
	for _, s := range sides {
		out.Live += s.Live
		out.MaxLive += s.MaxLive
	}
	return out
}

// RetiredNotFreed sums reclamation backlog over every index.
func (st *Store) RetiredNotFreed() int64 {
	var n int64
	for _, s := range st.stats() {
		n += s.RetiredNotFreed
	}
	return n
}

// DrainReport is the outcome of DrainAndCheck.
type DrainReport struct {
	Scheme          string `json:"scheme"`
	Baseline        int64  `json:"baseline"`
	Live            int64  `json:"live"`
	RetiredNotFreed int64  `json:"retired_not_freed"`
	Deleted         int    `json:"deleted"`
	LeakOK          bool   `json:"leak_ok"`
}

// DrainAndCheck empties the store and verifies the arenas returned to
// the post-construction baseline. Quiescent use only: no concurrent
// operations may be in flight, and every tid that ever operated must
// have completed. Reclaiming schemes must return Live to exactly the
// baseline; the "none" baseline instead satisfies conservation:
// Live − baseline == RetiredNotFreed (everything missing is accounted
// for on the leak lists).
func (st *Store) DrainAndCheck(tid int) DrainReport {
	deleted := 0
	var keys []uint64
	for _, point := range st.shards {
		keys = keys[:0]
		point.Keys(func(k uint64) { keys = append(keys, k) })
		for _, k := range keys {
			if ok, _ := st.Del(tid, k); ok {
				deleted++
			}
		}
	}
	// Ghost keys: a Del racing a Put can leave a key in the scan index
	// only. They hold no value, so they do not count as deleted.
	keys = keys[:0]
	st.scan.Scan(tid, MinKey, math.MaxInt, func(k, _ uint64) bool {
		keys = append(keys, k)
		return true
	})
	for _, k := range keys {
		st.scan.Remove(tid, k)
	}
	// Flush rounds: every tid clears its protections, then each round
	// retries the deferred frees that earlier rounds' protections held up.
	for round := 0; round < 3; round++ {
		for t := 0; t < st.cfg.MaxThreads; t++ {
			st.flush(t)
		}
	}
	rep := DrainReport{
		Scheme:          st.cfg.Scheme,
		Baseline:        st.baseline,
		Live:            st.live(),
		RetiredNotFreed: st.RetiredNotFreed(),
		Deleted:         deleted,
	}
	if st.cfg.Scheme == "none" {
		rep.LeakOK = rep.Live-rep.Baseline == rep.RetiredNotFreed
	} else {
		rep.LeakOK = rep.Live == rep.Baseline
	}
	return rep
}
