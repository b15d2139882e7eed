package torture

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/reclaim"
	"repro/internal/rt"
)

// Scan torture drives the reclamation schemes directly — no data
// structure in between — so the scan engine and the protection elision
// fast path take maximum pressure: every op is a protect or a
// replace-and-retire on a shared slot array, readers deliberately
// re-protect stable targets (the elided branch, where the injector's
// stalls park while the untouched slot is the only thing keeping the
// object alive), and writers churn hard enough that the adaptive
// threshold moves. The ledger adds scan-specific conditions on top of
// the usual ones: the fast path must actually have elided publishes,
// and the adaptive threshold must have respected its clamps.

type scanNode struct {
	Self uint64
}

// scanSchemes lists the schemes the scan kind covers: every manual
// scheme with a protection fast path.
func scanSchemes() []string { return []string{"hp", "ptb", "ptp", "ebr", "he", "ibr"} }

// RunScanScheme tortures one manual scheme's protection and scan paths.
func RunScanScheme(scheme string, cfg Config) *Verdict {
	cfg.defaults()
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: "scan-" + scheme, Kind: "scan", Seed: cfg.Seed, Threads: cfg.Threads}
	a := arena.New[scanNode](arena.WithFaultMode(arena.Count))
	s := reclaim.MustNew(scheme, reclaim.Env{Free: a.FreeT, Hdr: a.Header},
		reclaim.Options{MaxThreads: cfg.Threads, MaxHPs: 4})
	hooks := &bench.Hooks{
		FaultMode:   a.SetFaultMode,
		FaultHook:   a.SetFaultHook,
		ArenaStats:  a.Stats,
		SchemeStats: s.Stats,
		QuiesceFn: func() {
			for round := 0; round < 4; round++ {
				for tid := 0; tid < cfg.Threads; tid++ {
					s.ClearAll(tid)
					s.EndOp(tid)
				}
				for tid := 0; tid < cfg.Threads; tid++ {
					s.Flush(tid)
				}
			}
		},
		Reclaims:    true,
		ExactCounts: true,
	}
	if ss, ok := s.(reclaim.ScanStatser); ok {
		hooks.ScanStats = ss.ScanStats
	}
	var ad bench.Admin = hooks
	v.Baseline = ad.Stats().Arena().Live // 0: the drain empties every slot

	nslots := cfg.Keys
	if nslots == 0 {
		nslots = 256
	}
	slots := make([]atomic.Uint64, nslots)
	for i := range slots {
		h, p := a.Alloc()
		p.Self = uint64(h)
		s.OnAlloc(h)
		slots[i].Store(uint64(h))
	}

	in := newInjector(cfg)
	in.install()

	hashes := make([]uint64, cfg.Threads)
	var wg sync.WaitGroup
	var stalledDone atomic.Int32
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)))
			h := fnvOffset
			hps := 4
			for i := uint64(0); i < cfg.OpsPerThread; i++ {
				x := rng.Next()
				slot := x % nslots
				s.BeginOp(tid)
				if x>>60 < 6 { // ~37% writers: replace and retire
					h = fnv1a(h, 1, slot)
					nh, p := a.Alloc()
					p.Self = uint64(nh)
					s.OnAlloc(nh)
					if old := arena.Handle(slots[slot].Swap(uint64(nh))); !old.IsNil() {
						s.Retire(tid, old)
					}
				} else { // readers: protect, then re-protect the stable target
					h = fnv1a(h, 2, slot)
					idx := int(x>>16) % hps
					s.GetProtected(tid, idx, &slots[slot])
					// Back-to-back re-protect: unless a writer raced in
					// between, this takes the elided branch — and the
					// injector's stall can park right inside it.
					s.GetProtected(tid, idx, &slots[slot])
					if x&7 == 0 {
						s.BeginOp(tid) // re-announcement: EBR's elided path
					}
				}
				s.ClearAll(tid)
				s.EndOp(tid)
				in.opsDone.Add(1)
			}
			hashes[tid] = h
			// First finisher releases parked readers, but not before a
			// stalled tid has parked once or finished: the Gosched
			// perturbation can starve a reader for a whole run of a
			// writer, which would otherwise leave it nowhere to park.
			if tid >= cfg.Stalls {
				for in.stalls.Load() == 0 && stalledDone.Load() < int32(cfg.Stalls) {
					runtime.Gosched()
				}
			} else {
				stalledDone.Add(1)
			}
			in.stallOff.Store(true)
		}(w)
	}
	wg.Wait()
	in.uninstall()

	v.Ops = in.opsDone.Load()
	v.StallsTaken = in.stalls.Load()
	v.Perturbs = in.perturbs.Load()
	v.ScheduleHash = fnvOffset
	for _, h := range hashes {
		v.ScheduleHash = fnv1a(v.ScheduleHash, h)
	}

	// Drain every slot single-threaded, then audit.
	for i := range slots {
		if old := arena.Handle(slots[i].Swap(0)); !old.IsNil() {
			s.Retire(0, old)
		}
	}
	ad.Quiesce()
	v.auditStats(ad)
	if v.Scan.Elisions == 0 {
		v.failf("protection fast path never elided a publish (%d ops)", v.Ops)
	}
	if scheme == "hp" || scheme == "he" || scheme == "ibr" {
		if v.Scan.Scans == 0 {
			v.failf("scan engine never ran a scan despite %d retires", v.Scheme.Retired)
		}
	}
	return v
}
