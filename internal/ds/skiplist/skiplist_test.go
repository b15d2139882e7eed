package skiplist

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/reclaim"
)

type set interface {
	Insert(tid int, key uint64) bool
	Remove(tid int, key uint64) bool
	Contains(tid int, key uint64) bool
}

func lists(threads int) map[string]set {
	return map[string]set{
		"hs-orc":  NewHSOrc(0, core.DomainConfig{MaxThreads: threads}),
		"crf-orc": NewCRFOrc(0, core.DomainConfig{MaxThreads: threads}),
		"hs-ebr":  NewHSManual("ebr", reclaim.Options{MaxThreads: threads}),
		"hs-none": NewHSManual("none", reclaim.Options{MaxThreads: threads}),
	}
}

func TestLevelRNGDistribution(t *testing.T) {
	r := newLevelRNG(1)
	counts := make([]int, MaxLevels)
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[r.next(0)]++
	}
	if counts[0] < n/3 || counts[0] > 2*n/3 {
		t.Fatalf("level 0 frequency off: %d of %d", counts[0], n)
	}
	for l := 1; l < 4; l++ {
		if counts[l] == 0 {
			t.Fatalf("level %d never chosen", l)
		}
		ratio := float64(counts[l-1]) / float64(counts[l])
		if ratio < 1.3 || ratio > 3.0 {
			t.Fatalf("level %d/%d ratio %.2f not ≈2", l-1, l, ratio)
		}
	}
}

func TestPoisonEncoding(t *testing.T) {
	if !isPoison(poison) {
		t.Fatal("poison not recognized")
	}
	if !poison.IsNil() || !poison.Marked() || !poison.Flagged() {
		t.Fatal("poison must be a nil handle with both tags")
	}
	if isPoison(poison.WithoutFlag()) {
		t.Fatal("plain marked nil mistaken for poison")
	}
}

func TestSequentialSemantics(t *testing.T) {
	for name, s := range lists(2) {
		t.Run(name, func(t *testing.T) {
			if s.Contains(0, 7) {
				t.Fatal("empty list contains 7")
			}
			if !s.Insert(0, 7) || s.Insert(0, 7) {
				t.Fatal("insert semantics")
			}
			for _, k := range []uint64{3, 11, 5, 9, 1} {
				if !s.Insert(0, k) {
					t.Fatalf("insert %d", k)
				}
			}
			for _, k := range []uint64{1, 3, 5, 7, 9, 11} {
				if !s.Contains(0, k) {
					t.Fatalf("missing %d", k)
				}
			}
			if !s.Remove(0, 7) || s.Remove(0, 7) {
				t.Fatal("remove semantics")
			}
			if s.Contains(0, 7) {
				t.Fatal("7 still present")
			}
		})
	}
}

func TestAgainstModel(t *testing.T) {
	for name, s := range lists(2) {
		t.Run(name, func(t *testing.T) {
			model := map[uint64]bool{}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 30_000; i++ {
				k := uint64(rng.Intn(400)) + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(0, k) != !model[k] {
						t.Fatalf("insert(%d) vs model at %d", k, i)
					}
					model[k] = true
				case 1:
					if s.Remove(0, k) != model[k] {
						t.Fatalf("remove(%d) vs model at %d", k, i)
					}
					model[k] = false
				default:
					if s.Contains(0, k) != model[k] {
						t.Fatalf("contains(%d) vs model at %d", k, i)
					}
				}
			}
		})
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	for name, s := range lists(9) {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const workers = 8
			const span = 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					base := uint64(tid*span) + 1
					for round := 0; round < 10; round++ {
						for k := base; k < base+span; k++ {
							if !s.Insert(tid, k) {
								panic("owned insert failed")
							}
						}
						for k := base; k < base+span; k++ {
							if !s.Contains(tid, k) {
								panic("owned key missing")
							}
						}
						for k := base; k < base+span; k++ {
							if !s.Remove(tid, k) {
								panic("owned remove failed")
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestConcurrentShared(t *testing.T) {
	for name, s := range lists(9) {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*69621 + 3
					for i := 0; i < 6000; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						k := rng%96 + 1
						switch rng % 3 {
						case 0:
							s.Insert(tid, k)
						case 1:
							s.Remove(tid, k)
						default:
							s.Contains(tid, k)
						}
					}
				}(w)
			}
			wg.Wait()
			for k := uint64(1); k <= 96; k++ {
				s.Remove(0, k)
				if s.Contains(0, k) {
					t.Fatalf("key %d survived removal", k)
				}
			}
		})
	}
}

// TestCRFNoLeak: CRF must reclaim everything once drained — the §5
// footprint claim in miniature.
func TestCRFNoLeak(t *testing.T) {
	s := NewCRFOrc(0, core.DomainConfig{MaxThreads: 2})
	for k := uint64(1); k <= 400; k++ {
		s.Insert(0, k)
	}
	for k := uint64(1); k <= 400; k++ {
		if !s.Remove(0, k) {
			t.Fatalf("remove %d failed", k)
		}
	}
	s.Destroy(0)
	if live := s.Domain().Arena().Stats().Live; live != 0 {
		t.Fatalf("CRF leaked %d nodes", live)
	}
}

// TestHSOrcDrains: single-threaded HS-skip also drains fully (chains
// only build up under concurrency).
func TestHSOrcDrains(t *testing.T) {
	s := NewHSOrc(0, core.DomainConfig{MaxThreads: 2})
	for k := uint64(1); k <= 400; k++ {
		s.Insert(0, k)
	}
	for k := uint64(1); k <= 400; k++ {
		if !s.Remove(0, k) {
			t.Fatalf("remove %d failed", k)
		}
	}
	s.Destroy(0)
	if live := s.Domain().Arena().Stats().Live; live != 0 {
		t.Fatalf("HS-orc leaked %d nodes after teardown", live)
	}
}

// TestCRFFootprintBeatsHS reproduces the shape of the §5 memory claim
// at miniature scale: under identical concurrent churn, CRF-skip's
// live high-water stays well below HS-skip's.
func TestCRFFootprintBeatsHS(t *testing.T) {
	const workers = 8
	const iters = 15_000
	churn := func(s set) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := uint64(tid)*40503 + 13
				for i := 0; i < iters; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					k := rng%512 + 1
					if rng%2 == 0 {
						s.Insert(tid, k)
					} else {
						s.Remove(tid, k)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	hs := NewHSOrc(0, core.DomainConfig{MaxThreads: workers + 1})
	churn(hs)
	hsHigh := hs.Domain().Arena().Stats().MaxLive
	crf := NewCRFOrc(0, core.DomainConfig{MaxThreads: workers + 1})
	churn(crf)
	crfHigh := crf.Domain().Arena().Stats().MaxLive
	t.Logf("high-water live nodes: HS=%d CRF=%d", hsHigh, crfHigh)
	if crfHigh > hsHigh*2 {
		t.Fatalf("CRF footprint (%d) should not exceed HS (%d)", crfHigh, hsHigh)
	}
}

// TestUpperLinksStayNil guards the bound nodeLinks walks: a node's
// links above its topLevel are never set — inserts link only levels
// 0..topLevel, and the arena zeroes a slot on free, so a reused short
// node starts with nil upper links. After concurrent churn every node
// still live (reached from head over the links of every level) must
// have nil links above its topLevel, and the walk must reach every
// node the arena counts live.
func TestUpperLinksStayNil(t *testing.T) {
	const workers = 8
	type orcList interface {
		set
		Domain() *core.Domain[Node]
	}
	for name, s := range map[string]orcList{
		"hs-orc":  NewHSOrc(0, core.DomainConfig{MaxThreads: workers + 1}),
		"crf-orc": NewCRFOrc(0, core.DomainConfig{MaxThreads: workers + 1}),
	} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*40503 + 13
					for i := 0; i < 10_000; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						k := rng%512 + 1
						switch rng % 3 {
						case 0:
							s.Insert(tid, k)
						case 1:
							s.Remove(tid, k)
						default:
							s.Contains(tid, k)
						}
					}
				}(w)
			}
			wg.Wait()
			d := s.Domain()
			d.FlushAll()
			var head arena.Handle
			switch l := s.(type) {
			case *HSOrc:
				head = l.head.Raw()
			case *CRFOrc:
				head = l.head.Raw()
			}
			seen := map[arena.Handle]bool{head: true}
			for todo := []arena.Handle{head}; len(todo) > 0; {
				h := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				n := d.Get(h)
				for l := range n.next {
					next := n.next[l].Raw()
					if int32(l) > n.topLevel {
						if next != 0 {
							t.Fatalf("node %d (topLevel %d) has level %d linked to %v", n.key, n.topLevel, l, next)
						}
						continue
					}
					if next = next.Unmarked(); !next.IsNil() && !seen[next] {
						seen[next] = true
						todo = append(todo, next)
					}
				}
			}
			if live := d.Arena().Stats().Live; int64(len(seen)) != live {
				t.Fatalf("walk reached %d nodes, arena holds %d live", len(seen), live)
			}
			t.Logf("%d live nodes checked", len(seen))
		})
	}
}
