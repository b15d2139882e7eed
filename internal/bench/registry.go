package bench

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/kpqueue"
	"repro/internal/ds/lcrq"
	"repro/internal/ds/list"
	"repro/internal/ds/msqueue"
	"repro/internal/ds/nmtree"
	"repro/internal/ds/skiplist"
	"repro/internal/ds/turnqueue"
	"repro/internal/reclaim"
)

func domCfg(threads int) core.DomainConfig {
	if threads < 1 {
		threads = 1
	}
	return core.DomainConfig{MaxThreads: threads}
}

func recCfg(threads int) reclaim.Options {
	if threads < 1 {
		threads = 1
	}
	return reclaim.Options{MaxThreads: threads}
}

// orcAdmin builds the torture-control hooks for an OrcGC-backed subject:
// fault injection goes straight to the domain's arena, scheme accounting
// is synthesized from the domain's retire/free counters, and Quiesce is
// the domain's fixed-point drain.
func orcAdmin[T any](d *core.Domain[T]) Admin {
	a := d.Arena()
	return &Hooks{
		FaultMode:  a.SetFaultMode,
		FaultHook:  a.SetFaultHook,
		ArenaStats: a.Stats,
		SchemeStats: func() reclaim.Stats {
			r, f := d.Stats()
			return reclaim.Stats{Retired: r, Freed: f, RetiredNotFreed: int64(r) - int64(f)}
		},
		ScanStats: func() reclaim.ScanStats {
			return reclaim.ScanStats{Elisions: d.Elisions(), PeekFails: d.PeekFailures()}
		},
		QuiesceFn:   d.FlushAll,
		Reclaims:    true,
		ExactCounts: false,
	}
}

// manualAdmin builds the hooks for a subject running a manual scheme.
// Quiesce clears every thread's protections and reservations, then
// flushes each thread's retired list repeatedly — multiple rounds because
// epoch-style schemes only advance one grace period per flush.
func manualAdmin[T any](a *arena.Arena[T], s reclaim.Scheme, threads int) Admin {
	if threads < 1 {
		threads = 1
	}
	name := s.Name()
	ad := &Hooks{
		FaultMode:   a.SetFaultMode,
		FaultHook:   a.SetFaultHook,
		ArenaStats:  a.Stats,
		SchemeStats: s.Stats,
		QuiesceFn: func() {
			for round := 0; round < 4; round++ {
				for tid := 0; tid < threads; tid++ {
					s.ClearAll(tid)
					s.EndOp(tid)
				}
				for tid := 0; tid < threads; tid++ {
					s.Flush(tid)
				}
			}
		},
		Reclaims:    name != "none" && name != "unsafe",
		ExactCounts: true,
	}
	if ss, ok := s.(reclaim.ScanStatser); ok {
		ad.ScanStats = ss.ScanStats
	}
	return ad
}

// leakAdmin builds the hooks for a leak baseline that bypasses the
// reclaim layer entirely: arena control only, zero scheme stats.
func leakAdmin[T any](a *arena.Arena[T]) Admin {
	return &Hooks{
		FaultMode:   a.SetFaultMode,
		FaultHook:   a.SetFaultHook,
		ArenaStats:  a.Stats,
		SchemeStats: func() reclaim.Stats { return reclaim.Stats{} },
		Reclaims:    false,
		ExactCounts: true,
	}
}

// QueueNames lists the queue subjects of Figure 1: each algorithm
// with OrcGC and with no reclamation (the normalization baseline), plus
// the MS queue under every manual scheme as an extra comparison.
func QueueNames() []string {
	return []string{
		"ms-orc", "ms-leak", "ms-hp", "ms-ptb", "ms-ptp", "ms-ebr", "ms-he", "ms-ibr",
		"lcrq-orc", "lcrq-leak",
		"kp-orc", "kp-leak",
		"turn-orc", "turn-leak",
	}
}

func orcQueueInstance[T any](q Queue, d *core.Domain[T], drain func(tid int)) QueueInstance {
	return QueueInstance{Queue: q, Mem: func() MemStats {
		st := d.Arena().Stats()
		return MemStats{Live: st.Live, MaxLive: st.MaxLive}
	}, Admin: orcAdmin(d), Drain: drain, DrainDropsRoots: true}
}

func leakQueueInstance[T any](q Queue, a *arena.Arena[T]) QueueInstance {
	return QueueInstance{Queue: q, Mem: func() MemStats {
		st := a.Stats()
		return MemStats{Live: st.Live, MaxLive: st.MaxLive}
	}, Admin: leakAdmin(a)}
}

// NewQueue builds a queue subject by name.
func NewQueue(name string, threads int) QueueInstance {
	switch name {
	case "ms-orc":
		q := msqueue.NewOrc(0, domCfg(threads))
		return orcQueueInstance(q, q.Domain(), q.Drain)
	case "ms-leak":
		return manualMSQueue("none", threads)
	case "ms-hp", "ms-ptb", "ms-ptp", "ms-ebr", "ms-he", "ms-ibr":
		return manualMSQueue(name[3:], threads)
	case "lcrq-orc":
		q := lcrq.NewOrc(0, domCfg(threads))
		return orcQueueInstance(q, q.Domain(), q.Drain)
	case "lcrq-leak":
		q := lcrq.NewLeak()
		return leakQueueInstance(q, q.Arena())
	case "kp-orc":
		q := kpqueue.NewOrc(0, domCfg(threads))
		return orcQueueInstance(q, q.Domain(), q.Drain)
	case "kp-leak":
		q := kpqueue.NewLeak(threads)
		return leakQueueInstance(q, q.Arena())
	case "turn-orc":
		q := turnqueue.NewOrc(0, domCfg(threads))
		return orcQueueInstance(q, q.Domain(), q.Drain)
	case "turn-leak":
		q := turnqueue.NewLeak(threads)
		return leakQueueInstance(q, q.Arena())
	default:
		panic(fmt.Sprintf("bench: unknown queue %q", name))
	}
}

func manualMSQueue(scheme string, threads int) QueueInstance {
	q := msqueue.NewManual(scheme, recCfg(threads))
	return QueueInstance{Queue: q, Mem: func() MemStats {
		st := q.Arena().Stats()
		return MemStats{
			Live: st.Live, MaxLive: st.MaxLive,
			RetiredNotFreed: q.Scheme().Stats().RetiredNotFreed,
		}
	}, Admin: manualAdmin(q.Arena(), q.Scheme(), threads), Drain: q.Drain}
}

// ListSchemeNames are the Figure 3 subjects: the Michael–Harris list
// under each manual scheme and under OrcGC.
func ListSchemeNames() []string {
	return []string{"list-hp", "list-ptb", "list-ptp", "list-ebr", "list-he", "list-ibr", "list-none", "list-orc"}
}

// OrcListNames are the Figure 5 subjects: four lists, OrcGC only.
func OrcListNames() []string {
	return []string{"harris-orc", "michael-orc", "hs-orc", "tbkp-orc"}
}

// HashMapNames are the extension subjects: Michael's hash table (the
// structure the paper's introduction motivates) under OrcGC and under
// every manual scheme.
func HashMapNames() []string {
	return []string{"hmap-orc", "hmap-hp", "hmap-ptb", "hmap-ptp", "hmap-ebr", "hmap-he", "hmap-ibr", "hmap-none"}
}

// TreeSkipNames are the Figure 7 subjects.
func TreeSkipNames() []string {
	return []string{
		"tree-orc", "tree-ebr", "tree-none",
		"hsskip-orc", "hsskip-ebr", "hsskip-none",
		"crfskip-orc",
	}
}

func orcSetInstance[T any](s Set, d *core.Domain[T]) SetInstance {
	return SetInstance{Set: s, Mem: func() MemStats {
		st := d.Arena().Stats()
		return MemStats{Live: st.Live, MaxLive: st.MaxLive}
	}, Admin: orcAdmin(d)}
}

func manualSetInstance[T any](s Set, a *arena.Arena[T], sc reclaim.Scheme, threads int) SetInstance {
	return SetInstance{Set: s, Mem: func() MemStats {
		st := a.Stats()
		return MemStats{
			Live: st.Live, MaxLive: st.MaxLive,
			RetiredNotFreed: sc.Stats().RetiredNotFreed,
		}
	}, Admin: manualAdmin(a, sc, threads)}
}

// NewSet builds a set subject by name.
func NewSet(name string, threads int) SetInstance {
	switch name {
	case "list-orc", "michael-orc":
		l := list.NewMichaelOrc(0, domCfg(threads))
		return orcSetInstance(l, l.Domain())
	case "harris-orc":
		l := list.NewHarrisOrc(0, domCfg(threads))
		return orcSetInstance(l, l.Domain())
	case "hs-orc":
		l := list.NewHSOrc(0, domCfg(threads))
		return orcSetInstance(l, l.Domain())
	case "tbkp-orc":
		l := list.NewTBKPOrc(0, domCfg(threads))
		return orcSetInstance(l, l.Domain())
	case "list-hp", "list-ptb", "list-ptp", "list-ebr", "list-he", "list-ibr", "list-none":
		l := list.NewManual(name[5:], recCfg(threads))
		return manualSetInstance(l, l.Arena(), l.Scheme(), threads)
	case "tree-orc":
		t := nmtree.NewOrc(0, domCfg(threads))
		return orcSetInstance(t, t.Domain())
	case "tree-ebr", "tree-none":
		t := nmtree.NewManual(name[5:], recCfg(threads))
		return manualSetInstance(t, t.Arena(), t.Scheme(), threads)
	case "hsskip-orc":
		s := skiplist.NewHSOrc(0, domCfg(threads))
		return orcSetInstance(s, s.Domain())
	case "hsskip-ebr", "hsskip-none":
		s := skiplist.NewHSManual(name[7:], recCfg(threads))
		return manualSetInstance(s, s.Arena(), s.Scheme(), threads)
	case "hmap-orc":
		m := hashmap.NewOrc(0, 256, domCfg(threads))
		return orcSetInstance(m, m.Domain())
	case "hmap-hp", "hmap-ptb", "hmap-ptp", "hmap-ebr", "hmap-he", "hmap-ibr", "hmap-none":
		m := hashmap.NewManual(name[5:], 256, recCfg(threads))
		return manualSetInstance(m, m.Arena(), m.Scheme(), threads)
	case "crfskip-orc":
		s := skiplist.NewCRFOrc(0, domCfg(threads))
		return orcSetInstance(s, s.Domain())
	default:
		panic(fmt.Sprintf("bench: unknown set %q", name))
	}
}
