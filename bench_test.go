// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure. Each family measures at a fixed thread count (the
// full thread sweeps are cmd/orcbench's job). The paper's even-numbered
// (AMD) figures are not reproduced; DESIGN.md §3 says why.
//
//	go test -bench=. -benchmem
package repro

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

func benchThreads() int {
	t := runtime.GOMAXPROCS(0)
	if t > 4 {
		t = 4
	}
	if t < 1 {
		t = 1
	}
	return t
}

// runQueueBench drives b.N enqueue/dequeue pairs across the threads.
func runQueueBench(b *testing.B, name string) {
	threads := benchThreads()
	inst := bench.NewQueue(name, threads)
	for i := uint64(0); i < 64; i++ {
		inst.Queue.Enqueue(0, i)
	}
	per := b.N/threads + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inst.Queue.Enqueue(tid, uint64(i)&0xFFFFFF)
				inst.Queue.Dequeue(tid)
			}
		}(w)
	}
	wg.Wait()
}

// runSetBench drives b.N mixed operations across the threads. The 50%
// prefill is shuffled: ascending insertion would degenerate the
// unbalanced external BST into a linear chain.
func runSetBench(b *testing.B, name string, keys uint64, mix bench.Mix) {
	threads := benchThreads()
	inst := bench.NewSet(name, threads)
	gcd := func(a, b uint64) uint64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	stride := uint64(0x9E3779B9) | 1
	for gcd(stride, keys) != 1 {
		stride += 2
	}
	for i := uint64(0); i < keys; i++ {
		if k := (i * stride) % keys; k%2 == 0 {
			inst.Set.Insert(0, k+1)
		}
	}
	per := b.N/threads + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < per; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := rng%keys + 1
				p := int((rng >> 32) % 100)
				switch {
				case p < mix.InsertPct:
					inst.Set.Insert(tid, k)
				case p < mix.InsertPct+mix.RemovePct:
					inst.Set.Remove(tid, k)
				default:
					inst.Set.Contains(tid, k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFig1Queues — Figure 1: each queue with OrcGC and with no
// reclamation.
func BenchmarkFig1Queues(b *testing.B) {
	for _, name := range bench.QueueNames() {
		b.Run(name, func(b *testing.B) { runQueueBench(b, name) })
	}
}

// BenchmarkFig3ListSchemes — Figure 3: Michael-Harris list, 10^3 keys,
// every reclamation scheme, three mixes.
func BenchmarkFig3ListSchemes(b *testing.B) {
	for _, mix := range []bench.Mix{bench.MixWrite, bench.MixRead, bench.MixRO} {
		for _, name := range bench.ListSchemeNames() {
			b.Run(name+"/"+mix.String(), func(b *testing.B) {
				runSetBench(b, name, 1000, mix)
			})
		}
	}
}

// BenchmarkFig5OrcLists — Figure 5: Harris, Michael, HS and TBKP lists
// under OrcGC.
func BenchmarkFig5OrcLists(b *testing.B) {
	for _, mix := range []bench.Mix{bench.MixWrite, bench.MixRead, bench.MixRO} {
		for _, name := range bench.OrcListNames() {
			b.Run(name+"/"+mix.String(), func(b *testing.B) {
				runSetBench(b, name, 1000, mix)
			})
		}
	}
}

// BenchmarkFig7TreeSkip — Figure 7: NM-tree, HS-skip and CRF-skip on the
// large key range.
func BenchmarkFig7TreeSkip(b *testing.B) {
	for _, mix := range []bench.Mix{bench.MixWrite, bench.MixRead, bench.MixRO} {
		for _, name := range bench.TreeSkipNames() {
			b.Run(name+"/"+mix.String(), func(b *testing.B) {
				runSetBench(b, name, 20_000, mix)
			})
		}
	}
}

// BenchmarkSkipMemFootprint — the §5 memory claim: live high-water of
// HS-skip vs CRF-skip under identical churn (paper: ≈19 GB vs <1 GB).
func BenchmarkSkipMemFootprint(b *testing.B) {
	for _, name := range []string{"hsskip-orc", "crfskip-orc"} {
		name := name
		b.Run(name, func(b *testing.B) {
			threads := benchThreads()
			inst := bench.NewSet(name, threads)
			per := b.N/threads + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*40503 + 13
					for i := 0; i < per; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						k := rng%512 + 1
						if rng%2 == 0 {
							inst.Set.Insert(tid, k)
						} else {
							inst.Set.Remove(tid, k)
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if inst.Mem != nil {
				b.ReportMetric(float64(inst.Mem().MaxLive), "max-live-nodes")
			}
		})
	}
}

// BenchmarkExtHashMap — extension: Michael's hash table under OrcGC and
// every manual scheme (the structure class the paper's introduction
// motivates; not one of the paper's figures).
func BenchmarkExtHashMap(b *testing.B) {
	for _, name := range bench.HashMapNames() {
		b.Run(name, func(b *testing.B) {
			runSetBench(b, name, 4096, bench.MixRead)
		})
	}
}

// BenchmarkTable1MemoryBound — the measured bound column of Table 1:
// max retired-not-freed objects per scheme under adversarial pressure.
func BenchmarkTable1MemoryBound(b *testing.B) {
	for _, scheme := range []string{"hp", "ptb", "ptp", "ebr", "he", "ibr"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			threads := benchThreads() + 2
			b.ResetTimer()
			res := bench.MeasureBoundObs(scheme, threads, 3, 150*time.Millisecond, 0)
			b.StopTimer()
			b.ReportMetric(float64(res.MaxPending), "max-pending")
			b.ReportMetric(float64(res.Freed), "freed")
			if scheme == "ptp" && res.MaxPending > int64(threads*4) {
				b.Fatalf("PTP bound violated: %d > %d", res.MaxPending, threads*4)
			}
		})
	}
}
