package kvstore

import (
	"slices"
	"sync"
	"testing"
)

func TestStoreAllModes(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode, func(t *testing.T) {
			st, err := New(Config{Scheme: mode, Shards: 4, Buckets: 64, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if ins, _ := st.Put(0, 5, 50); !ins {
				t.Fatal("first put should insert")
			}
			if ins, _ := st.Put(0, 5, 55); ins {
				t.Fatal("second put should update")
			}
			for k := uint64(1); k <= 20; k++ {
				st.Put(0, k*3, k)
			}
			// A ghost key: in the scan index only, as a Del racing a Put
			// can leave it. Scan must skip it and the drain remove it.
			st.scan.Insert(0, 7)
			if v, ok, _ := st.Get(0, 5); !ok || v != 55 {
				t.Fatalf("get(5) = %d,%v", v, ok)
			}
			if _, ok, _ := st.Get(0, 4); ok {
				t.Fatal("get(4) on absent key")
			}
			pairs, _ := st.Scan(0, 1, 100)
			last := uint64(0)
			for i := 0; i < len(pairs); i += 2 {
				if pairs[i] <= last {
					t.Fatalf("scan not strictly ascending at %v", pairs)
				}
				last = pairs[i]
			}
			if len(pairs)/2 != 21 {
				t.Fatalf("scan found %d keys, want 21", len(pairs)/2)
			}
			// Bounded scan over keys spread across the shards.
			pairs, _ = st.Scan(0, 10, 5)
			if len(pairs)/2 != 5 || pairs[0] < 10 {
				t.Fatalf("bounded scan = %v", pairs)
			}
			if ok, _ := st.Del(0, 5); !ok {
				t.Fatal("del(5)")
			}
			if _, ok, _ := st.Get(0, 5); ok {
				t.Fatal("get after del")
			}
			if _, err := st.Put(0, 0, 1); err == nil {
				t.Fatal("key 0 must be rejected")
			}
			rep := st.DrainAndCheck(0)
			if !rep.LeakOK {
				t.Fatalf("drain leak check failed: %+v", rep)
			}
			if rep.Deleted != 20 {
				t.Fatalf("drain deleted %d keys, want 20", rep.Deleted)
			}
		})
	}
}

// hookedScan is a scan index whose next Remove first runs hook.
type hookedScan struct {
	scanIndex
	hook func()
}

func (h *hookedScan) Remove(tid int, key uint64) bool {
	if f := h.hook; f != nil {
		h.hook = nil
		f()
	}
	return h.scanIndex.Remove(tid, key)
}

// TestStoreDelPutInterleaving drives point remove → point insert → scan
// insert → scan remove on one key: a Put landing between Del's two
// removes. The key must stay visible to both Get and Scan.
func TestStoreDelPutInterleaving(t *testing.T) {
	const k = 42
	for _, mode := range []string{"orcgc", "ebr", "hp"} {
		t.Run(mode, func(t *testing.T) {
			st, err := New(Config{Scheme: mode, Shards: 1, Buckets: 16, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			st.Put(0, k, 1)
			hs := &hookedScan{scanIndex: st.scan}
			hs.hook = func() { st.Put(1, k, 2) }
			st.scan = hs
			st.Del(0, k)
			if v, ok, _ := st.Get(0, k); !ok || v != 2 {
				t.Fatalf("Get(%d) = %d,%v, want 2,true", k, v, ok)
			}
			if pairs, _ := st.Scan(0, k, 1); len(pairs) != 2 || pairs[0] != k || pairs[1] != 2 {
				t.Fatalf("Scan(%d, 1) = %v, want [%d 2]", k, pairs, k)
			}
			if rep := st.DrainAndCheck(0); !rep.LeakOK || rep.Deleted != 1 {
				t.Fatalf("drain: %+v", rep)
			}
		})
	}
}

// TestStoreScanSkipsGhosts: a run of ghost keys longer than the limit
// must not cut a Scan short.
func TestStoreScanSkipsGhosts(t *testing.T) {
	st, err := New(Config{Scheme: "orcgc", Shards: 2, Buckets: 16, MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		st.scan.Insert(0, k)
	}
	for _, k := range []uint64{9, 21, 30} {
		st.Put(0, k, k*10)
	}
	pairs, _ := st.Scan(0, MinKey, 2)
	if len(pairs) != 4 || pairs[0] != 9 || pairs[1] != 90 || pairs[2] != 21 || pairs[3] != 210 {
		t.Fatalf("Scan = %v, want [9 90 21 210]", pairs)
	}
	if pairs, _ = st.Scan(0, 22, 5); len(pairs) != 2 || pairs[0] != 30 {
		t.Fatalf("Scan from 22 = %v, want [30 300]", pairs)
	}
	if rep := st.DrainAndCheck(0); !rep.LeakOK || rep.Deleted != 3 {
		t.Fatalf("drain: %+v", rep)
	}
}

// countingScan counts the Scan calls a scan index receives and the keys
// it emits.
type countingScan struct {
	scanIndex
	calls, keys int
}

func (c *countingScan) Scan(tid int, from uint64, limit int, emit func(k, v uint64) bool) int {
	c.calls++
	return c.scanIndex.Scan(tid, from, limit, func(k, v uint64) bool {
		c.keys++
		return emit(k, v)
	})
}

// TestStoreScanWalksIndexOnce: a Scan over eight shards is one walk of
// the one scan index, reading no more keys than it returns plus the
// ghosts it skips.
func TestStoreScanWalksIndexOnce(t *testing.T) {
	const ghosts = 5
	for _, mode := range []string{"orcgc", "ebr", "hp"} {
		t.Run(mode, func(t *testing.T) {
			st, err := New(Config{Scheme: mode, Shards: 8, Buckets: 64, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 200; k++ {
				st.Put(0, k, k*10)
			}
			for k := uint64(1000); k < 1000+ghosts; k++ {
				st.scan.Insert(0, k) // ghosts inside the scanned range
			}
			for k := uint64(1000 + ghosts); k < 1100; k++ {
				st.Put(0, k, k*10)
			}
			cs := &countingScan{scanIndex: st.scan}
			st.scan = cs
			pairs, _ := st.Scan(0, 190, 16)
			if len(pairs) != 32 || pairs[0] != 190 || pairs[2*11] != 1000+ghosts {
				t.Fatalf("Scan(190, 16) = %v", pairs)
			}
			if cs.calls != 1 {
				t.Fatalf("Scan called the index %d times, want 1", cs.calls)
			}
			if cs.keys > 16+ghosts {
				t.Fatalf("Scan read %d keys, want at most %d", cs.keys, 16+ghosts)
			}
			if rep := st.DrainAndCheck(0); !rep.LeakOK {
				t.Fatalf("drain: %+v", rep)
			}
		})
	}
}

// TestStoreIndexesAgreeAfterChurn: goroutines race Put/Del on four keys;
// once they are quiet, Scan's keys must equal the point index's and
// every Scan value must equal Get's.
func TestStoreIndexesAgreeAfterChurn(t *testing.T) {
	const threads, rounds, ops = 4, 20, 200
	for _, mode := range []string{"orcgc", "ebr", "hp"} {
		t.Run(mode, func(t *testing.T) {
			st, err := New(Config{Scheme: mode, Shards: 2, Buckets: 4, MaxThreads: threads})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						x := uint64(r*threads+tid)*0x9e3779b97f4a7c15 | 1
						for i := 0; i < ops; i++ {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
							if k := x%4 + 1; x&16 == 0 {
								st.Put(tid, k, x)
							} else {
								st.Del(tid, k)
							}
						}
					}(tid)
				}
				wg.Wait()
				var want []uint64
				for i := range st.shards {
					st.shards[i].Keys(func(k uint64) { want = append(want, k) })
				}
				slices.Sort(want)
				pairs, _ := st.Scan(0, MinKey, 64)
				var got []uint64
				for i := 0; i < len(pairs); i += 2 {
					got = append(got, pairs[i])
					if v, ok, _ := st.Get(0, pairs[i]); !ok || v != pairs[i+1] {
						t.Fatalf("round %d: Scan has %d=%d, Get has %d,%v", r, pairs[i], pairs[i+1], v, ok)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: Scan keys %v, point keys %v", r, got, want)
				}
			}
			if rep := st.DrainAndCheck(0); !rep.LeakOK {
				t.Fatalf("drain: %+v", rep)
			}
		})
	}
}

func TestStoreRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Scheme: "bogus"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := New(Config{Scheme: "unsafe"}); err == nil {
		t.Fatal("unsafe scheme accepted")
	}
	if _, err := New(Config{Shards: 3}); err == nil {
		t.Fatal("non-power-of-two shards accepted")
	}
}

func TestStoreAliases(t *testing.T) {
	st, err := New(Config{Scheme: "leak", Shards: 1, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != "none" {
		t.Fatalf("leak alias resolved to %q", st.Scheme())
	}
}
