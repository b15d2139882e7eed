// Allocator microbenchmarks for `go test -bench`: tight single-thread
// alloc/free pairs, and churn over a private window of live objects at
// several goroutine counts. The end-to-end and per-layer numbers
// (arena.alloc_free_ns, arena.mag_hit_ratio) come from benchmark/.
package arena_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arena"
)

type benchNode struct{ Key uint64 }

const churnWindow = 48

// churn runs workers goroutines, each performing iters alloc/free pairs
// over a private window of live objects.
func churn(a *arena.Arena[benchNode], workers, iters int) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			<-start
			held := make([]arena.Handle, churnWindow)
			for i := range held {
				held[i], _ = a.AllocT(tid)
			}
			seed := uint64(tid)*2654435769 + 1
			for i := 0; i < iters; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				j := int(seed>>33) % churnWindow
				a.FreeT(tid, held[j])
				held[j], _ = a.AllocT(tid)
			}
			for _, h := range held {
				a.FreeT(tid, h)
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

func BenchmarkAllocFreeSingle(b *testing.B) {
	a := arena.New[benchNode]()
	for i := 0; i < b.N; i++ {
		h, _ := a.AllocT(0)
		a.FreeT(0, h)
	}
}

func BenchmarkChurn(b *testing.B) {
	for _, g := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			churn(arena.New[benchNode](), g, b.N/g+1)
		})
	}
}
