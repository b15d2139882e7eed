package reclaim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/obs"
)

type tnode struct {
	Self uint64 // the node's own handle, for payload integrity checks
}

func testEnv(t testing.TB, mode arena.FaultMode) (*arena.Arena[tnode], Env) {
	t.Helper()
	a := arena.New[tnode](arena.WithFaultMode(mode))
	return a, Env{
		Free: a.FreeT,
		Hdr:  a.Header,
	}
}

func allocNode(a *arena.Arena[tnode], s Scheme) arena.Handle {
	h, p := a.Alloc()
	p.Self = uint64(h)
	s.OnAlloc(h)
	return h
}

func lockfreeSchemes() []string { return []string{"hp", "ptb", "ptp", "he", "ibr"} }

func allSchemes() []string { return []string{"none", "hp", "ptb", "ptp", "ebr", "he", "ibr"} }

// TestProtectPreventsFree: a protected object must survive a retire by
// another thread; after the protection clears, flushing frees it.
func TestProtectPreventsFree(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 4})

			var slot atomic.Uint64
			h := allocNode(a, s)
			slot.Store(uint64(h))

			s.BeginOp(0)
			got := s.GetProtected(0, 0, &slot)
			if got != h {
				t.Fatalf("GetProtected returned %v, want %v", got, h)
			}

			// Thread 1 unlinks and retires.
			s.BeginOp(1)
			slot.Store(0)
			s.Retire(1, h)
			s.Flush(1)
			s.EndOp(1)

			// Still protected: dereference must succeed.
			if a.Get(h).Self != uint64(h) {
				t.Fatal("payload corrupted while protected")
			}

			s.ClearAll(0)
			s.EndOp(0)
			s.Flush(1)
			s.Flush(0)
			if a.Valid(h) {
				t.Fatalf("%s: object still live after clear+flush", name)
			}
		})
	}
}

// TestRetireUnprotectedFrees: with nobody protecting, retire must
// eventually free (immediately for PTP, after Flush for list-based).
func TestRetireUnprotectedFrees(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 4})
			h := allocNode(a, s)
			s.Retire(0, h)
			s.Flush(0)
			if a.Valid(h) {
				t.Fatal("unprotected retired object not freed")
			}
			st := s.Stats()
			if st.Retired != 1 || st.Freed != 1 || st.RetiredNotFreed != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestPTPImmediateFree: PTP deletes an unprotected object during retire
// itself — no thread-local retired list, no Flush needed.
func TestPTPImmediateFree(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newPTP(env, Options{MaxThreads: 4, MaxHPs: 4})
	h := allocNode(a, s)
	s.Retire(0, h)
	if a.Valid(h) {
		t.Fatal("PTP retire of unprotected object must free synchronously")
	}
}

// TestPTPHandover: retiring an object protected by another thread parks
// it in that thread's handover slot; the protector's Clear adopts and
// frees it.
func TestPTPHandover(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newPTP(env, Options{MaxThreads: 4, MaxHPs: 4})

	var slot atomic.Uint64
	h := allocNode(a, s)
	slot.Store(uint64(h))

	s.GetProtected(1, 2, &slot) // thread 1 protects at idx 2
	slot.Store(0)
	s.Retire(0, h) // thread 0 retires; must hand over, not free
	if !a.Valid(h) {
		t.Fatal("protected object was freed")
	}
	if parked := arena.Handle(s.handovers[1][2].Load()); parked != h {
		t.Fatalf("object not parked in protector's handover slot: %v", parked)
	}
	s.Clear(1, 2) // protector clears: adopts the buck and frees
	if a.Valid(h) {
		t.Fatal("object survived protector's clear")
	}
}

// TestPTPHandoverDisplacement: a handover slot already holding an object
// passes the displaced object onward (Alg. 2 line 28-31).
func TestPTPHandoverDisplacement(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newPTP(env, Options{MaxThreads: 4, MaxHPs: 4})

	var s1, s2 atomic.Uint64
	h1 := allocNode(a, s)
	h2 := allocNode(a, s)
	s1.Store(uint64(h1))
	s2.Store(uint64(h2))

	s.GetProtected(1, 0, &s1)
	s.Retire(0, h1) // parked at [1][0]
	if !a.Valid(h1) {
		t.Fatal("h1 freed while protected")
	}

	// Thread 1 re-protects the same slot index with h2; h1 is still
	// parked. Retiring h2 exchanges it into [1][0], displacing h1,
	// which is now unprotected and must be freed.
	s.GetProtected(1, 0, &s2)
	s.Retire(0, h2)
	if a.Valid(h1) {
		t.Fatal("displaced h1 not freed")
	}
	if !a.Valid(h2) {
		t.Fatal("h2 freed while protected")
	}
	s.Clear(1, 0)
	if a.Valid(h2) {
		t.Fatal("h2 survived clear")
	}
}

// TestPTPBoundInvariant: the paper's §3.1 claim — at any time at most
// t×(H+1) retired-but-undeleted objects. We hammer retire from all
// threads while readers hold protections and assert the high-water mark.
func TestPTPBoundInvariant(t *testing.T) {
	const threads = 8
	const hps = 4
	a, env := testEnv(t, arena.Strict)
	s := newPTP(env, Options{MaxThreads: threads, MaxHPs: hps})

	slots := make([]atomic.Uint64, 64)
	for i := range slots {
		slots[i].Store(uint64(allocNode(a, s)))
	}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: protect random slots.
	for r := 0; r < threads/2; r++ {
		readers.Add(1)
		go func(tid int) {
			defer readers.Done()
			rng := uint64(tid + 1)
			for {
				select {
				case <-stop:
					s.ClearAll(tid)
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				i := rng % uint64(len(slots))
				idx := int(rng>>32) % hps
				s.GetProtected(tid, idx, &slots[i])
				if rng%7 == 0 {
					s.Clear(tid, idx)
				}
			}
		}(r)
	}
	// Writers: replace and retire.
	for w := threads / 2; w < threads; w++ {
		writers.Add(1)
		go func(tid int) {
			defer writers.Done()
			rng := uint64(tid * 977)
			for n := 0; n < 3000; n++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				i := rng % uint64(len(slots))
				nh := allocNode(a, s)
				old := arena.Handle(slots[i].Swap(uint64(nh)))
				if !old.IsNil() {
					s.Retire(tid, old)
				}
				if max := s.Stats().MaxRetiredNotFreed; max > int64(threads*(hps+1)) {
					panic(fmt.Sprintf("PTP bound violated: %d > %d", max, threads*(hps+1)))
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	bound := int64(threads * (hps + 1))
	if st.MaxRetiredNotFreed > bound {
		t.Fatalf("PTP linear bound violated: max %d > t(H+1) = %d", st.MaxRetiredNotFreed, bound)
	}
	t.Logf("PTP max retired-not-freed = %d (bound %d)", st.MaxRetiredNotFreed, bound)
}

// TestSchemeStress runs a protect/replace/retire mill under every
// scheme with the strict arena: any use-after-free panics.
func TestSchemeStress(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const threads = 6
			const hps = 3
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: threads, MaxHPs: hps})

			slots := make([]atomic.Uint64, 32)
			for i := range slots {
				h, p := a.Alloc()
				p.Self = uint64(h)
				s.OnAlloc(h)
				slots[i].Store(uint64(h))
			}

			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid*2654435761 + 1)
					for n := 0; n < 4000; n++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						i := rng % uint64(len(slots))
						s.BeginOp(tid)
						if rng%3 == 0 {
							// writer: replace and retire
							nh, p := a.Alloc()
							p.Self = uint64(nh)
							s.OnAlloc(nh)
							old := arena.Handle(slots[i].Swap(uint64(nh)))
							if !old.IsNil() {
								s.Retire(tid, old)
							}
						} else {
							// reader: protect then dereference
							h := s.GetProtected(tid, int(rng>>16)%hps, &slots[i])
							if !h.IsNil() {
								got := a.Get(h) // panics on UAF
								if got.Self != uint64(h.Unmarked()) {
									panic("payload integrity violated")
								}
							}
						}
						s.ClearAll(tid)
						s.EndOp(tid)
					}
					s.Flush(tid)
				}(w)
			}
			wg.Wait()

			for tid := 0; tid < threads; tid++ {
				s.Flush(tid)
			}
			st := s.Stats()
			t.Logf("%s: retired=%d freed=%d pending=%d maxPending=%d",
				name, st.Retired, st.Freed, st.RetiredNotFreed, st.MaxRetiredNotFreed)
			if st.Freed == 0 {
				t.Fatalf("%s freed nothing under churn", name)
			}
		})
	}
}

// TestUnsafeSchemeCaught: the deliberately broken scheme must produce a
// detectable use-after-free under the counting arena.
func TestUnsafeSchemeCaught(t *testing.T) {
	a, env := testEnv(t, arena.Count)
	s := newUnsafe(env, Options{})
	var slot atomic.Uint64
	h := allocNode(a, s)
	slot.Store(uint64(h))

	got := s.GetProtected(0, 0, &slot) // no real protection
	slot.Store(0)
	s.Retire(1, h) // frees immediately despite the reader

	a.Get(got) // stale: recorded as fault
	if a.Stats().Faults == 0 {
		t.Fatal("broken scheme escaped the generation check")
	}
}

// TestEBRStalledReaderBlocksReclamation: the Table 1 "blocking" row.
func TestEBRStalledReaderBlocksReclamation(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newEBR(env, Options{MaxThreads: 2, MaxHPs: 1})

	s.BeginOp(0) // reader enters and never leaves

	var freedBefore uint64
	for n := 0; n < 500; n++ {
		h := allocNode(a, s)
		s.Retire(1, h)
	}
	s.Flush(1)
	freedBefore = s.Stats().Freed
	if freedBefore != 0 {
		t.Fatalf("EBR freed %d objects past a stalled reader", freedBefore)
	}

	s.EndOp(0) // reader finally quiesces
	s.Flush(1)
	s.Flush(1)
	if s.Stats().Freed == 0 {
		t.Fatal("EBR freed nothing even after the reader quiesced")
	}
}

// TestHEEraStamping: birth/retire eras land in the header words.
func TestHEEraStamping(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newHE(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	h := allocNode(a, s)
	birth, retire := a.Header(h)
	if birth.Load() == 0 {
		t.Fatal("birth era not stamped")
	}
	if retire.Load() != 0 {
		t.Fatal("retire era set before retire")
	}
	bh := birth.Load()
	s.Retire(0, h)
	// The handle may already be freed; eras were captured at retire.
	_ = bh
	st := s.Stats()
	if st.Retired != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHEProtectionHoldsInterval: an object whose lifetime interval
// includes a published era must not be freed.
func TestHEProtectionHoldsInterval(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newHE(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	var slot atomic.Uint64
	h := allocNode(a, s)
	slot.Store(uint64(h))

	got := s.GetProtected(0, 0, &slot)
	if got != h {
		t.Fatal("wrong handle")
	}
	slot.Store(0)
	s.Retire(1, h)
	s.Flush(1)
	if !a.Valid(h) {
		t.Fatal("HE freed an era-protected object")
	}
	s.ClearAll(0)
	s.Flush(1)
	if a.Valid(h) {
		t.Fatal("HE failed to free after clear")
	}
}

// TestIBRIntervalProtection: same for 2GEIBR with its [lower, upper]
// reservations.
func TestIBRIntervalProtection(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newIBR(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	var slot atomic.Uint64
	h := allocNode(a, s)
	slot.Store(uint64(h))

	s.BeginOp(0)
	got := s.GetProtected(0, 0, &slot)
	if got != h {
		t.Fatal("wrong handle")
	}
	slot.Store(0)
	s.Retire(1, h)
	s.Flush(1)
	if !a.Valid(h) {
		t.Fatal("IBR freed a reserved-interval object")
	}
	s.EndOp(0)
	s.Flush(1)
	if a.Valid(h) {
		t.Fatal("IBR failed to free after reservation dropped")
	}
}

// TestNoneLeaks: the baseline must never free.
func TestNoneLeaks(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newNone(env, Options{})
	h := allocNode(a, s)
	s.Retire(0, h)
	s.Flush(0)
	if !a.Valid(h) {
		t.Fatal("None freed an object")
	}
	if s.Stats().RetiredNotFreed != 1 {
		t.Fatal("leak not counted")
	}
}

// TestNewUnknownErrors guards the factory: unknown names are an error
// (names arrive from flags and network config), and MustNew converts
// that error to a panic for statically known names.
func TestNewUnknownErrors(t *testing.T) {
	if s, err := New("bogus", Env{}, Options{}); err == nil || s != nil {
		t.Fatalf("New(bogus) = %v, %v; want nil, error", s, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic for unknown scheme")
		}
	}()
	MustNew("bogus", Env{}, Options{})
}

// TestNamesConstructible: every advertised name must construct, in the
// paper's presentation order, and Name() must round-trip.
func TestNamesConstructible(t *testing.T) {
	want := []string{"none", "hp", "ptb", "ptp", "ebr", "he", "ibr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	_, env := testEnv(t, arena.Strict)
	for _, n := range Names() {
		s, err := New(n, env, Options{MaxThreads: 2, MaxHPs: 2})
		if err != nil || s == nil {
			t.Fatalf("New(%q) = %v, %v", n, s, err)
		}
		if s.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, s.Name())
		}
	}
}

// TestAliasesResolve: aliases construct the canonical scheme and
// Canonical reports them.
func TestAliasesResolve(t *testing.T) {
	_, env := testEnv(t, arena.Strict)
	for alias, canon := range map[string]string{
		"leak": "none", "2geibr": "ibr", "unsafe": "unsafe", "hp": "hp",
	} {
		if c, ok := Canonical(alias); !ok || c != canon {
			t.Fatalf("Canonical(%q) = %q, %v; want %q", alias, c, ok, canon)
		}
		if s := MustNew(alias, env, Options{MaxThreads: 2, MaxHPs: 2}); s.Name() != canon {
			t.Fatalf("MustNew(%q).Name() = %q, want %q", alias, s.Name(), canon)
		}
	}
	if _, ok := Canonical("nope"); ok {
		t.Fatal("Canonical must reject unknown names")
	}
}

// TestMarkedHandleRetire: schemes must treat marked handles as their
// unmarked referent.
func TestMarkedHandleRetire(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 2})
			h := allocNode(a, s)
			s.Retire(0, h.WithMark())
			s.Flush(0)
			if a.Valid(h) {
				t.Fatal("marked retire leaked")
			}
		})
	}
}

// TestGetProtectedTracksMovingTarget: the protection loop must converge
// on a slot that keeps changing and return a value consistent with a
// published protection.
func TestGetProtectedTracksMovingTarget(t *testing.T) {
	for _, name := range []string{"hp", "ptb", "ptp"} {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 4, MaxHPs: 2})
			var slot atomic.Uint64
			h0 := allocNode(a, s)
			slot.Store(uint64(h0))

			done := make(chan struct{})
			go func() {
				defer close(done)
				for n := 0; n < 2000; n++ {
					nh := allocNode(a, s)
					old := arena.Handle(slot.Swap(uint64(nh)))
					s.Retire(1, old)
				}
			}()
			for n := 0; n < 2000; n++ {
				h := s.GetProtected(0, 0, &slot)
				if h.IsNil() {
					t.Fatal("nil from non-nil slot")
				}
				if a.Get(h).Self != uint64(h) {
					t.Fatal("dereferenced wrong or stale object")
				}
				s.Clear(0, 0)
			}
			<-done
		})
	}
}

// TestMetricsInstrumentation: constructing with Options.Metrics must
// expose gauge funcs that track the scheme's counters, and the sampled
// free-latency histogram must record under churn.
func TestMetricsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	a, env := testEnv(t, arena.Strict)
	s := MustNew("hp", env, Options{MaxThreads: 2, MaxHPs: 2, Label: "t/hp", Metrics: reg})

	const n = 500
	for i := 0; i < n; i++ {
		s.Retire(0, allocNode(a, s))
	}
	s.Flush(0)

	snap := map[string]int64{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m.Value
	}
	st := s.Stats()
	if snap["reclaim/t/hp/retired"] != int64(st.Retired) || snap["reclaim/t/hp/freed"] != int64(st.Freed) {
		t.Fatalf("gauges %v disagree with Stats %+v", snap, st)
	}
	if snap["reclaim/t/hp/pending"] != st.RetiredNotFreed {
		t.Fatalf("pending gauge %d != %d", snap["reclaim/t/hp/pending"], st.RetiredNotFreed)
	}
	if snap["reclaim/t/hp/retire_depth"] != int64(s.RetireDepth(0)+s.RetireDepth(1)) {
		t.Fatal("retire_depth gauge disagrees with RetireDepth")
	}
	// 1-in-64 sampling over 500 retires must have landed some spans.
	if reg.Hist("reclaim/t/hp/free_lat_ns").Count() == 0 {
		t.Fatal("free-latency histogram recorded nothing")
	}
}

// TestUninstrumentedNoMetrics: the default (nil Metrics) must leave the
// instrumentation pointer nil — the no-op fast path.
func TestUninstrumentedNoMetrics(t *testing.T) {
	a, env := testEnv(t, arena.Strict)
	s := newHP(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	if s.inst != nil {
		t.Fatal("uninstrumented scheme has instrumentation state")
	}
	s.Retire(0, allocNode(a, s))
	s.Flush(0)
}

// TestRetireDepthConcurrentRead: RetireDepth is read from other
// goroutines (the retire_depth gauge, kvstore STATS) while the owner
// retires, so it must not race with the owner's list. Run under -race.
func TestRetireDepthConcurrentRead(t *testing.T) {
	const n = 5000
	for _, name := range allSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 2})
			var slot atomic.Uint64
			slot.Store(uint64(allocNode(a, s)))
			s.GetProtected(1, 0, &slot) // tid 1 protects the first retire: the pointer schemes defer it

			stop := make(chan struct{})
			maxSeen := make(chan int)
			go func() {
				m := 0
				for {
					select {
					case <-stop:
						maxSeen <- m
						return
					default:
						m = max(m, s.RetireDepth(0))
					}
				}
			}()
			s.Retire(0, arena.Handle(slot.Swap(0)))
			for i := 0; i < n; i++ {
				s.Retire(0, allocNode(a, s))
			}
			close(stop)
			if m := <-maxSeen; m > n+1 {
				t.Fatalf("RetireDepth read %d, more than the %d objects retired", m, n+1)
			}
		})
	}
}
