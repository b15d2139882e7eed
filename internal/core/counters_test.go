package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ds/hashmap"
)

// TestStatsMatchArenaUnderChurn: the retire/free counters are per-thread
// single-writer words summed by Domain.Stats. After 2–4 goroutines churn
// a hash map (under -race in `make check`), the summed frees must equal
// the arena's exact free count — every OrcGC free goes through
// deleteObj — and every freed object must have been retired at least
// once. A concurrent reader checks the sum never runs backwards.
func TestStatsMatchArenaUnderChurn(t *testing.T) {
	for _, threads := range []int{2, 3, 4} {
		t.Run(fmt.Sprint(threads), func(t *testing.T) {
			m := hashmap.NewOrc(0, 16, core.DomainConfig{MaxThreads: threads + 1})
			d := m.Domain()
			check := func(when string) {
				retires, frees := d.Stats()
				if af := d.Arena().Stats().Frees; frees != af {
					t.Fatalf("%s: Domain frees %d != arena frees %d", when, frees, af)
				}
				if retires < frees {
					t.Fatalf("%s: retires %d < frees %d", when, retires, frees)
				}
			}

			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, f := d.Stats()
					if f < last {
						t.Errorf("summed frees ran backwards: %d after %d", f, last)
						return
					}
					last = f
				}
			}()

			var wg sync.WaitGroup
			for tid := 1; tid <= threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					x := uint64(tid) * 0x9e3779b97f4a7c15
					for i := 0; i < 3000; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						k := x%128 + 1
						switch x >> 62 {
						case 0, 1:
							m.Insert(tid, k)
						case 2:
							m.Remove(tid, k)
						default:
							m.Contains(tid, k)
						}
					}
				}(tid)
			}
			wg.Wait()
			close(stop)
			reader.Wait()

			check("after churn")
			if _, frees := d.Stats(); frees == 0 {
				t.Fatal("churn freed nothing")
			}
			m.Destroy(0)
			check("after Destroy")
			if live := d.Arena().Stats().Live; live != 0 {
				t.Fatalf("leak: %d live after Destroy", live)
			}
		})
	}
}
