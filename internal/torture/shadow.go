package torture

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/rt"
)

// Set torture partitions the key space by ownership: tid mutates only
// keys congruent to tid modulo Threads, so a lock-free per-thread shadow
// map predicts the exact return value of every Insert and Remove (and of
// Contains on owned keys). Foreign keys are still read concurrently —
// the reclamation stress — their results just aren't predictable.

// ownedKey maps (tid, draw) into tid's key partition, 1-based so key 0
// (a sentinel in several structures) is never used.
func ownedKey(tid, threads int, draw, keysPer uint64) uint64 {
	return uint64(tid) + (draw%keysPer)*uint64(threads) + 1
}

// RunSet tortures one set subject from the bench registry.
func RunSet(name string, cfg Config) *Verdict {
	cfg.defaults()
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: name, Kind: "set", Seed: cfg.Seed, Threads: cfg.Threads}
	inst := bench.NewSet(name, cfg.Threads)
	ad := inst.Admin
	ad.Faults().SetMode(arena.Count) // survive and ledger faults, don't crash
	v.Baseline = ad.Stats().Arena().Live

	in := newInjector(cfg)
	in.install()

	keysPer := cfg.Keys/uint64(cfg.Threads) + 1
	shadows := make([]map[uint64]bool, cfg.Threads)
	hashes := make([]uint64, cfg.Threads)
	var mismatches sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)))
			shadow := make(map[uint64]bool, keysPer)
			h := fnvOffset
			var fails []string
			for i := uint64(0); i < cfg.OpsPerThread; i++ {
				x := rng.Next()
				p := int((x >> 48) % 100)
				switch {
				case p < cfg.InsertPct:
					k := ownedKey(tid, cfg.Threads, x, keysPer)
					h = fnv1a(h, 1, k)
					if got, want := inst.Set.Insert(tid, k), !shadow[k]; got != want && len(fails) < 4 {
						fails = append(fails, sprintfOp("insert", tid, k, got, want))
					}
					shadow[k] = true
				case p < cfg.InsertPct+cfg.RemovePct:
					k := ownedKey(tid, cfg.Threads, x, keysPer)
					h = fnv1a(h, 2, k)
					if got, want := inst.Set.Remove(tid, k), shadow[k]; got != want && len(fails) < 4 {
						fails = append(fails, sprintfOp("remove", tid, k, got, want))
					}
					delete(shadow, k)
				default:
					k := x%(keysPer*uint64(cfg.Threads)) + 1
					h = fnv1a(h, 3, k)
					got := inst.Set.Contains(tid, k)
					if int((k-1)%uint64(cfg.Threads)) == tid {
						if want := shadow[k]; got != want && len(fails) < 4 {
							fails = append(fails, sprintfOp("contains", tid, k, got, want))
						}
					}
				}
				in.opsDone.Add(1)
			}
			shadows[tid] = shadow
			hashes[tid] = h
			in.stallOff.Store(true) // first finisher releases parked readers
			if len(fails) > 0 {
				mismatches.Lock()
				v.Failures = append(v.Failures, fails...)
				mismatches.Unlock()
			}
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

	// Quiescent verify: every shadow-live key must be present; then empty
	// the structure and audit the reclamation ledger.
	for tid, shadow := range shadows {
		for k := range shadow {
			if !inst.Set.Contains(0, k) {
				v.failf("shadow conservation: key %d (owner tid %d) live in shadow, absent in set", k, tid)
			}
			if !inst.Set.Remove(0, k) {
				v.failf("drain: remove of shadow-live key %d returned false", k)
			}
		}
	}
	// Spot-check absent keys: everything the shadows say is dead must be.
	for tid := 0; tid < cfg.Threads; tid++ {
		for j := uint64(0); j < keysPer; j++ {
			k := uint64(tid) + j*uint64(cfg.Threads) + 1
			if !shadows[tid][k] && inst.Set.Contains(0, k) {
				v.failf("shadow conservation: key %d dead in shadow, present in set", k)
			}
		}
	}
	ad.Quiesce()
	v.auditStats(ad)
	return v
}

func sprintfOp(op string, tid int, k uint64, got, want bool) string {
	return fmt.Sprintf("shadow mismatch: %s(tid=%d, key=%d) got %v, want %v", op, tid, k, got, want)
}

// Queue torture tags every enqueued value with its producer and sequence
// number (tid<<24 | seq — LCRQ stores 32-bit items, 0xFFFFFFFF
// reserved), so the post-run audit can prove exactly-once delivery:
// every value enqueued is dequeued or drained exactly once, nothing
// alien appears, and nothing vanishes.

// RunQueue tortures one queue subject from the bench registry.
func RunQueue(name string, cfg Config) *Verdict {
	cfg.defaults()
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: name, Kind: "queue", Seed: cfg.Seed, Threads: cfg.Threads}
	inst := bench.NewQueue(name, cfg.Threads)
	ad := inst.Admin
	ad.Faults().SetMode(arena.Count)
	v.Baseline = ad.Stats().Arena().Live

	in := newInjector(cfg)
	in.install()

	enqCounts := make([]uint64, cfg.Threads)
	dequeued := make([][]uint64, cfg.Threads)
	hashes := make([]uint64, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)))
			h := fnvOffset
			seq := uint64(0)
			var got []uint64
			for i := uint64(0); i < cfg.OpsPerThread; i++ {
				if rng.Next()&1 == 0 {
					val := uint64(tid)<<24 | seq
					seq++
					h = fnv1a(h, 1, val)
					inst.Queue.Enqueue(tid, val)
				} else {
					h = fnv1a(h, 2)
					if val, ok := inst.Queue.Dequeue(tid); ok {
						got = append(got, val)
					}
				}
				in.opsDone.Add(1)
			}
			enqCounts[tid] = seq
			dequeued[tid] = got
			hashes[tid] = h
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

	// Drain the remainder single-threaded, then prove exactly-once.
	var drained []uint64
	for {
		val, ok := inst.Queue.Dequeue(0)
		if !ok {
			break
		}
		drained = append(drained, val)
	}
	if inst.Drain != nil {
		// Release structural roots (sentinels, descriptor arrays); the
		// queue is already empty so no values are discarded. When every
		// root is dropped, the post-quiesce expectation for a reclaiming
		// subject is an empty arena, not the construction baseline.
		inst.Drain(0)
		if inst.DrainDropsRoots {
			v.Baseline = 0
		}
	}
	seen := make(map[uint64]int)
	for _, per := range dequeued {
		for _, val := range per {
			seen[val]++
		}
	}
	for _, val := range drained {
		seen[val]++
	}
	var totalEnq uint64
	for tid, n := range enqCounts {
		totalEnq += n
		for s := uint64(0); s < n; s++ {
			val := uint64(tid)<<24 | s
			switch seen[val] {
			case 1:
				delete(seen, val)
			case 0:
				v.failf("lost value: tid=%d seq=%d enqueued, never dequeued", tid, s)
			default:
				v.failf("duplicated value: tid=%d seq=%d dequeued %d times", tid, s, seen[val])
				delete(seen, val)
			}
			if len(v.Failures) > 8 {
				v.failf("… further value failures suppressed")
				goto audit
			}
		}
	}
	for val := range seen {
		v.failf("alien value dequeued: %#x never enqueued", val)
		if len(v.Failures) > 8 {
			break
		}
	}
audit:
	ad.Quiesce()
	v.auditStats(ad)
	return v
}
