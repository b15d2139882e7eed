package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/arena"
	"repro/internal/bench"
)

// dsHPs is H of the Michael list and of the hash map's bucket lists
// (next, cur, prev); PTP may hold at most T·(H+1) retired objects.
const dsHPs = 3

func setName(w *workload, subj string) string {
	if w.target == targetHMap {
		return "hmap-" + subj
	}
	return "list-" + subj
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type dsWorker struct {
	g       *gen
	ops     uint64
	insOK   int64
	remOK   int64
	samples []uint32
	_       [64]byte
}

// dsRun is what one instance of a subject measured.
type dsRun struct {
	setup   time.Duration
	ops     uint64
	elapsed time.Duration
	cpu     time.Duration
	samples []uint32 // sampled op latencies, ns
	maxLive int64
}

// runDSInstance builds a fresh instance of one subject on a freshly
// perturbed heap, prefills it, lets T workers replay op streams
// (seed, stream) for dur, then audits it.
func runDSInstance(w *workload, subj string, seed, stream uint64, T int, dur time.Duration, res *result) dsRun {
	var run dsRun
	name := setName(w, subj)
	hold := perturbHeap(mix64(seed, stream<<8|0xff))
	defer runtime.KeepAlive(hold)

	t0 := time.Now()
	inst := bench.NewSet(name, T)
	base := inst.Admin.Stats().Arena().Live
	// Count mode: a stale dereference is tallied and fails the run
	// instead of killing the process mid-measurement.
	inst.Admin.Faults().SetMode(arena.Count)
	prefilled := int64(0)
	for k := uint64(2); k <= w.keys; k += 2 {
		if inst.Set.Insert(0, k) {
			prefilled++
		}
	}
	run.setup = time.Since(t0)

	workers := make([]dsWorker, T)
	for tid := range workers {
		workers[tid].g = w.newGen(seed, stream<<8|uint64(tid))
		workers[tid].samples = make([]uint32, 0, 1<<13)
	}
	// Workers stop themselves at the deadline, read off the clock pair
	// of their sampled ops: with every P busy spinning, a sleeping
	// coordinator is woken only at the next forced preemption, ~10 ms
	// late.
	var deadline time.Time
	start := make(chan struct{})
	var wg sync.WaitGroup
	for tid := range workers {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			wk := &workers[tid]
			set := inst.Set
			mask := w.latMask
			<-start
			n := uint64(0)
			for {
				o := wk.g.next()
				sample := n&mask == 0
				var ts time.Time
				if sample {
					if ts = time.Now(); ts.After(deadline) {
						break
					}
				}
				switch o.kind {
				case opInsert:
					if set.Insert(tid, o.key) {
						wk.insOK++
					}
				case opRemove:
					if set.Remove(tid, o.key) {
						wk.remOK++
					}
				default:
					set.Contains(tid, o.key)
				}
				if sample {
					wk.samples = append(wk.samples, uint32(time.Since(ts)))
				}
				n++
			}
			wk.ops = n
		}(tid)
	}
	cpu0 := selfCPU()
	begin := time.Now()
	deadline = begin.Add(dur)
	close(start)
	wg.Wait()
	run.elapsed = time.Since(begin)
	run.cpu = selfCPU() - cpu0

	expect := prefilled
	for i := range workers {
		run.ops += workers[i].ops
		expect += workers[i].insOK - workers[i].remOK
		run.samples = append(run.samples, workers[i].samples...)
	}
	res.attempted += run.ops

	// Audit: membership count, reclamation back to baseline, no stale
	// dereference, and the paper's bound for PTP.
	present := int64(0)
	for k := uint64(1); k <= w.keys; k++ {
		if inst.Set.Contains(0, k) {
			present++
		}
	}
	if present != expect {
		res.problem("%s stream %d: %d keys present, want prefill+inserts-removes = %d", name, stream, present, expect)
	}
	peak := inst.Admin.Stats().Scheme().MaxRetiredNotFreed
	inst.Admin.Quiesce()
	ar := inst.Admin.Stats().Arena()
	run.maxLive = ar.MaxLive
	if ar.Faults != 0 {
		res.problem("%s stream %d: %d arena faults", name, stream, ar.Faults)
	}
	if inst.Admin.Reclaiming() && ar.Live != base+present {
		res.problem("%s stream %d: live %d after quiesce, want baseline %d + %d present", name, stream, ar.Live, base, present)
	}
	if bound := int64(T * (dsHPs + 1)); subj == "ptp" && peak > bound {
		res.problem("%s stream %d: peak unreclaimed %d exceeds T(H+1) = %d", name, stream, peak, bound)
	}
	return run
}

// layoutsPerSlice is how many fresh instances, each on its own heap
// layout, share one slice; see perturbHeap.
const layoutsPerSlice = 4

type dsSlice struct {
	setups   []float64 // s, one per instance
	opsPerS  float64
	p50, p99 float64 // µs, over the slice's sampled ops
	nsamples int
	cpuPerOp float64 // µs
	maxLive  int64
}

// runDSSlice measures one slice of one subject: layoutsPerSlice fresh
// instances back to back, pooled.
func runDSSlice(w *workload, subj string, seed uint64, round, T int, dur time.Duration, res *result) dsSlice {
	var sl dsSlice
	var ops uint64
	var elapsed, cpu time.Duration
	var samples []uint32
	for i := 0; i < layoutsPerSlice; i++ {
		run := runDSInstance(w, subj, seed, uint64(round*layoutsPerSlice+i), T, dur/layoutsPerSlice, res)
		runtime.GC() // the dropped instance, one arena of chunks
		sl.setups = append(sl.setups, run.setup.Seconds())
		ops += run.ops
		elapsed += run.elapsed
		cpu += run.cpu
		samples = append(samples, run.samples...)
		sl.maxLive = max(sl.maxLive, run.maxLive)
	}
	sl.opsPerS = float64(ops) / elapsed.Seconds()
	sl.p50, sl.p99 = latencyUs(samples)
	sl.nsamples = len(samples)
	if ops > 0 {
		sl.cpuPerOp = float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
	}
	return sl
}

// perturbHeap allocates a seed-chosen handful of small objects in every
// size class up to 1 KiB, with and without pointers, and returns them
// for the caller to hold. A subject's per-thread reclamation state is a
// few small heap objects, and whether two threads' objects end up
// sharing a cache line depends on which allocator slots happen to be
// free when it is built: left alone, that is the same accident for
// every slice of a process and a different one in the next process,
// and it moves a scheme's throughput by 30%. Shifting the free slots
// before each instance makes every slice draw its own layout, so a run
// samples many layouts and two runs sample the same distribution.
func perturbHeap(seed uint64) (hold []any) {
	rng := splitmix64{s: seed}
	for size := 16; size <= 1024; size += 16 {
		x := rng.next()
		for i := uint64(0); i < x&3; i++ {
			hold = append(hold, make([]byte, size))
		}
		for i := uint64(0); i < x>>2&3; i++ {
			hold = append(hold, make([]*byte, size/8))
		}
	}
	return hold
}

// runDS measures an in-process workload: rounds × subjects interleaved
// slices (orc, ptp, hp, ebr, none, orc, …), a fresh instance per slice.
func runDS(w *workload, seed uint64, seconds float64, T int) *result {
	res := newResult()
	// The Go collector runs between slices only, when asked: the
	// structures under test live in arenas it does not manage, and a
	// cycle it started inside a slice would be the harness's noise.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rounds, dur := slicing(seconds)
	by := map[string][]dsSlice{}
	var setups []float64
	for round := 0; round < rounds; round++ {
		for _, subj := range subjects {
			sl := runDSSlice(w, subj, seed, round, T, dur, res)
			by[subj] = append(by[subj], sl)
			setups = append(setups, sl.setups...)
		}
	}
	col := func(subj string, f func(dsSlice) float64) []float64 {
		var xs []float64
		for _, sl := range by[subj] {
			xs = append(xs, f(sl))
		}
		return xs
	}
	res.metrics["setup_s"] = median(setups)
	for _, subj := range subjects {
		res.metrics[opsMetric[subj]] = betterHalf(col(subj, func(s dsSlice) float64 { return s.opsPerS }), true)
	}
	res.metrics["p50_us"] = betterHalf(col("orc", func(s dsSlice) float64 { return s.p50 }), false)
	res.metrics["p99_us"] = betterHalf(col("orc", func(s dsSlice) float64 { return s.p99 }), false)
	res.metrics["server_cpu_us_per_op"] = betterHalf(col("orc", func(s dsSlice) float64 { return s.cpuPerOp }), false)
	res.metrics["peak_live_objs"] = median(col("orc", func(s dsSlice) float64 { return float64(s.maxLive) }))

	none := res.metrics["none_ops_s"]
	if none > 0 && res.metrics["hp_ops_s"] > 0 {
		res.note("orc/none %.3f   ptp/none %.3f   ptp/hp %.3f   (throughput ratios, ungated)",
			res.metrics["throughput_ops_s"]/none, res.metrics["ptp_ops_s"]/none,
			res.metrics["ptp_ops_s"]/res.metrics["hp_ops_s"])
	}
	res.note("latency: %.0f samples per orc slice (1 op in %d timed), %d threads, %d slices of %v per subject, %d instances per slice",
		median(col("orc", func(s dsSlice) float64 { return float64(s.nsamples) })), w.latMask+1, T, rounds, dur, layoutsPerSlice)
	return res
}
