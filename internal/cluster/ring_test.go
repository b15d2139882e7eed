package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rt"
)

func addrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	return out
}

// Placement is a pure function of the topology: two rings built from
// the same node list agree on every key, and key placement does not
// depend on the probe order or any per-process state.
func TestRingDeterministicPlacement(t *testing.T) {
	nodes := addrs(5)
	a := BuildRing(nodes, 128)
	b := BuildRing(nodes, 128)
	var bufA, bufB [3]int32
	for seed := uint64(0); seed < 4; seed++ {
		for i := uint64(0); i < 20000; i++ {
			key := rt.SplitMix64(seed*1e9 + i)
			ra := a.Lookup(key, 3, bufA[:0])
			rb := b.Lookup(key, 3, bufB[:0])
			if len(ra) != 3 || len(rb) != 3 {
				t.Fatalf("key %d: want 3 replicas, got %d and %d", key, len(ra), len(rb))
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("key %d: rings disagree: %v vs %v", key, ra, rb)
				}
			}
			if ra[0] == ra[1] || ra[0] == ra[2] || ra[1] == ra[2] {
				t.Fatalf("key %d: replica set %v is not distinct", key, ra)
			}
		}
	}
}

// At 128 vnodes the primary-key share of every node stays within ±10%
// of fair across cluster sizes 2..8.
func TestRingBalance(t *testing.T) {
	const keys = 200000
	for _, n := range []int{2, 3, 4, 5, 8} {
		r := BuildRing(addrs(n), 128)
		counts := make([]int, n)
		var buf [1]int32
		for i := 0; i < keys; i++ {
			ids := r.Lookup(uint64(i)*2654435761+1, 1, buf[:0])
			counts[ids[0]]++
		}
		fair := float64(keys) / float64(n)
		for id, c := range counts {
			dev := (float64(c) - fair) / fair
			if dev > 0.10 || dev < -0.10 {
				t.Errorf("n=%d node %d holds %d keys (fair %.0f, deviation %+.1f%%)",
					n, id, c, fair, dev*100)
			}
		}
	}
}

// Adding one node to an N-node ring must remap only ~K/(N+1) primaries,
// and every remapped key must move *to* the new node — the minimal
// movement property that makes live joins cheap.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	const keys = 100000
	base := addrs(4)
	before := BuildRing(base, 128)
	after := BuildRing(append(append([]string(nil), base...), "10.0.0.99:7070"), 128)
	newID := after.NodeID("10.0.0.99:7070")
	moved := 0
	var buf [1]int32
	for i := 0; i < keys; i++ {
		key := uint64(i)*0x9E3779B97F4A7C15 + 7
		pb := before.Lookup(key, 1, buf[:0])[0]
		pa := after.Lookup(key, 1, buf[:0])[0]
		if int(pa) < len(base) && pa != pb {
			t.Fatalf("key %d moved between surviving nodes: %d → %d", key, pb, pa)
		}
		if pa == newID {
			moved++
		}
	}
	expect := float64(keys) / 5
	if f := float64(moved); f < 0.5*expect || f > 1.5*expect {
		t.Errorf("join moved %d primaries, want ≈%.0f (K/N+1)", moved, expect)
	}
}

// Removing a node remaps only that node's keys; survivors keep theirs.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	const keys = 100000
	nodes := addrs(5)
	before := BuildRing(nodes, 128)
	after := BuildRing(nodes[:4], 128)
	gone := before.NodeID(nodes[4])
	moved := 0
	var buf [1]int32
	for i := 0; i < keys; i++ {
		key := uint64(i)*0xBF58476D1CE4E5B9 + 3
		pb := before.Lookup(key, 1, buf[:0])[0]
		pa := after.Lookup(key, 1, buf[:0])[0]
		if pb != gone && pa != pb {
			t.Fatalf("key %d moved although its primary survived: %d → %d", key, pb, pa)
		}
		if pb == gone {
			moved++
		}
	}
	expect := float64(keys) / 5
	if f := float64(moved); f < 0.5*expect || f > 1.5*expect {
		t.Errorf("leave moved %d primaries, want ≈%.0f (K/N)", moved, expect)
	}
}

// The routing path allocates nothing when the caller reuses its buffer.
func TestRingLookupZeroAlloc(t *testing.T) {
	r := BuildRing(addrs(5), 128)
	buf := make([]int32, 0, 3)
	n := testing.AllocsPerRun(1000, func() {
		buf = r.Lookup(12345, 3, buf)
	})
	if n != 0 {
		t.Errorf("Lookup allocates %.1f times per call, want 0", n)
	}
}

// Lookup stays correct while the published topology is swapped under
// it — the proxy's exact access pattern: readers load the ring through
// an atomic pointer per request while a topology churner installs
// fresh rings. Each result must be internally consistent with whichever
// ring the reader loaded (right length, valid distinct ids, and exactly
// the ids that ring's own preference table holds for the key), never a
// blend of two topologies. Run with -race: the readers' only sync with
// the swapper is the pointer load, so any mutation of a published ring
// would be flagged.
func TestRingLookupUnderConcurrentSwap(t *testing.T) {
	rings := make([]*Ring, 6)
	for i := range rings {
		rings[i] = BuildRing(addrs(i+3), 64) // 3..8 nodes
	}
	var cur atomic.Pointer[Ring]
	cur.Store(rings[0])

	stop := make(chan struct{})
	var swaps atomic.Uint64
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cur.Store(rings[i%len(rings)])
			swaps.Add(1)
			runtime.Gosched()
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			buf := make([]int32, 0, 3)
			want := make([]int32, 0, 3)
			for i := 0; i < 20000; i++ {
				key := uint64(id)<<32 | uint64(i)
				r := cur.Load()
				buf = r.Lookup(key, 2, buf)
				if len(buf) != 2 {
					errs[id] = fmt.Errorf("key %d: %d ids, want 2", key, len(buf))
					return
				}
				if buf[0] == buf[1] {
					errs[id] = fmt.Errorf("key %d: duplicate replica id %d", key, buf[0])
					return
				}
				for _, b := range buf {
					if b < 0 || int(b) >= len(r.Nodes) {
						errs[id] = fmt.Errorf("key %d: id %d out of range for %d nodes", key, b, len(r.Nodes))
						return
					}
				}
				// Same ring, same key ⇒ bitwise-identical answer; a torn
				// read of a swapped table could not reproduce itself.
				want = r.Lookup(key, 2, want)
				if buf[0] != want[0] || buf[1] != want[1] {
					errs[id] = fmt.Errorf("key %d: unstable lookup %v vs %v", key, buf, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	for id, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", id, err)
		}
	}
	if swaps.Load() == 0 {
		t.Error("swapper never swapped; the test raced nothing")
	}
}
