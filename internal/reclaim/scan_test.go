package reclaim

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
)

// ---------------------------------------------------------------------
// Adaptive threshold policy (white-box): afterScan is the entire policy,
// so driving it directly with synthetic scan outcomes is deterministic.

func TestAdaptiveThresholdPolicy(t *testing.T) {
	_, env := testEnv(t, arena.Strict)
	opts := Options{MaxThreads: 2, MaxHPs: 2}
	e := &newHP(env, opts, adaptive(64)).engine
	if e.lim.min != 16 || e.lim.max != 1024 {
		t.Fatalf("clamps for base 64: [%d, %d], want [16, 1024]", e.lim.min, e.lim.max)
	}
	if got := e.threshold(0); got != 64 {
		t.Fatalf("initial threshold %d, want base 64", got)
	}

	// A scan freeing nothing doubles the threshold, up to the clamp.
	want := 64
	for i := 0; i < 8; i++ {
		e.afterScan(0, 100, 0, time.Microsecond)
		want = min(want*2, e.lim.max)
		if got := e.threshold(0); got != want {
			t.Fatalf("grow step %d: threshold %d, want %d", i, got, want)
		}
	}
	if e.threshold(0) != e.lim.max {
		t.Fatalf("threshold %d did not clamp at max %d", e.threshold(0), e.lim.max)
	}

	// Mid-band ratio (exactly the boundaries included) leaves it alone.
	for _, freed := range []int{25, 50, 75} {
		e.afterScan(0, 100, freed, time.Microsecond)
		if got := e.threshold(0); got != e.lim.max {
			t.Fatalf("freed %d/100 moved threshold to %d", freed, got)
		}
	}
	// Empty-list scans (Flush on a drained thread) never move it.
	e.afterScan(0, 0, 0, time.Microsecond)
	if got := e.threshold(0); got != e.lim.max {
		t.Fatalf("batch 0 moved threshold to %d", got)
	}

	// A scan freeing everything halves it, down to the clamp.
	want = e.lim.max
	for i := 0; i < 10; i++ {
		e.afterScan(0, 100, 100, time.Microsecond)
		want = max(want/2, e.lim.min)
		if got := e.threshold(0); got != want {
			t.Fatalf("shrink step %d: threshold %d, want %d", i, got, want)
		}
	}
	if e.threshold(0) != e.lim.min {
		t.Fatalf("threshold %d did not clamp at min %d", e.threshold(0), e.lim.min)
	}

	// Thresholds are per-thread: tid 1 never moved.
	if got := e.threshold(1); got != 64 {
		t.Fatalf("tid 1 threshold %d, want untouched base 64", got)
	}

	// An engine whose clamps equal its base never moves.
	f := &newHP(env, opts, fixed(64)).engine
	for _, freed := range []int{0, 100} {
		f.afterScan(0, 100, freed, time.Microsecond)
		if got := f.threshold(0); got != 64 {
			t.Fatalf("fixed limits: freed %d/100 moved threshold to %d", freed, got)
		}
	}

	// afterScan books scans, not frees: Freed counts the scheme's real
	// frees (TestAdaptiveThreshold checks it end to end).
	st := e.ScanStats()
	if st.Scans == 0 || st.Scanned == 0 || st.ScanNs == 0 {
		t.Fatalf("stats not booked: %+v", st)
	}
	if st.MinThreshold != e.lim.min || st.MaxThreshold != e.lim.max {
		t.Fatalf("stats clamps %d/%d, want %d/%d", st.MinThreshold, st.MaxThreshold, e.lim.min, e.lim.max)
	}
}

// TestScanEngineClampEdges covers the limits' edge cases and each
// scheme's default base threshold.
func TestScanEngineClampEdges(t *testing.T) {
	// Tiny base: the floor must not sit above the base itself.
	if l := adaptive(4); l.min != 4 || l.max != 64 {
		t.Fatalf("base 4 clamps [%d, %d], want [4, 64]", l.min, l.max)
	}
	// Degenerate base.
	_, env := testEnv(t, arena.Strict)
	if h := newHP(env, Options{MaxThreads: 1}, adaptive(0)); h.lim.base != 1 || h.threshold(0) != 1 {
		t.Fatalf("base 0 not normalized: base=%d threshold=%d", h.lim.base, h.threshold(0))
	}
}

// TestScanThresholdOption checks that the constructor argument sets the
// base and that zero limits select each scheme's classic default: HP
// R = 2·H·t (floored), HE/IBR H·t (floored), EBR fixed at its cadence.
func TestScanThresholdOption(t *testing.T) {
	_, env := testEnv(t, arena.Strict)
	small := Options{MaxThreads: 2, MaxHPs: 2}
	for name, lim := range map[string]limits{
		"hp":  newHP(env, small, adaptive(8)).lim,
		"he":  newHE(env, small, adaptive(8)).lim,
		"ibr": newIBR(env, small, adaptive(8)).lim,
	} {
		if lim.base != 8 {
			t.Errorf("%s: base %d, want constructor argument 8", name, lim.base)
		}
	}
	big := Options{MaxThreads: 16, MaxHPs: 8}
	if got := newHP(env, big, limits{}).lim.base; got != 256 {
		t.Errorf("hp default base %d, want 2·8·16 = 256", got)
	}
	if got := newHE(env, big, limits{}).lim.base; got != 128 {
		t.Errorf("he default base %d, want 8·16 = 128", got)
	}
	if got := newEBR(env, big).lim; got != fixed(ebrCadence) {
		t.Errorf("ebr limits %+v, want fixed at %d", got, ebrCadence)
	}
}

// TestAdaptiveThresholdRandomWalk drives afterScan with a seeded stream
// of arbitrary scan outcomes and asserts the clamp invariant holds at
// every step. Deterministic: the walk is a pure function of the seed.
func TestAdaptiveThresholdRandomWalk(t *testing.T) {
	_, env := testEnv(t, arena.Strict)
	e := &newHP(env, Options{MaxThreads: 1, MaxHPs: 8}, adaptive(64)).engine
	rng := uint64(0x9E3779B97F4A7C15) // fixed seed
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		batch := int(rng%256) + 1
		freed := int((rng >> 32) % uint64(batch+1))
		e.afterScan(0, batch, freed, time.Nanosecond)
		if th := e.threshold(0); th < e.lim.min || th > e.lim.max {
			t.Fatalf("step %d (batch=%d freed=%d): threshold %d outside [%d, %d]",
				i, batch, freed, th, e.lim.min, e.lim.max)
		}
	}
}

// ---------------------------------------------------------------------
// End-to-end adaptive behaviour per scheme: pin the whole retired set so
// scans free nothing (threshold must ride to the ceiling), then release
// and churn (threshold must ride back to the floor). Deterministic:
// single goroutine, fixed counts. EBR's limits are fixed at its cadence,
// so its ceiling and floor coincide.

// threshold returns tid's current retire threshold.
func (e *engine[T]) threshold(tid int) int { return int(e.tl[tid].threshold.Load()) }

// thresholder is the engine's per-thread threshold, promoted to every
// engine scheme.
type thresholder interface{ threshold(tid int) int }

func TestAdaptiveThreshold(t *testing.T) {
	const pinCount = 140 // enough to pin past base·16 = 128
	pin := func(a *arena.Arena[tnode], s Scheme) []arena.Handle {
		pinned := make([]arena.Handle, pinCount)
		for i := range pinned {
			pinned[i] = allocNode(a, s)
		}
		return pinned
	}
	cases := []struct {
		name string
		// lastRatioBP is the last scan's freed ratio once churn runs
		// free: every scan frees its whole batch, except EBR's reap,
		// which frees an entry only two epochs after its retire, so a
		// lone retiring thread's reap frees the older half of its list.
		lastRatioBP int64
		setup       func(a *arena.Arena[tnode], env Env) (s Scheme, pinned []arena.Handle, unpin func())
	}{
		{"hp", 10000, func(a *arena.Arena[tnode], env Env) (Scheme, []arena.Handle, func()) {
			s := newHP(env, Options{MaxThreads: 2, MaxHPs: pinCount}, adaptive(8))
			pinned := pin(a, s)
			for i, h := range pinned {
				s.Protect(1, i, h)
			}
			return s, pinned, func() { s.ClearAll(1) }
		}},
		{"he", 10000, func(a *arena.Arena[tnode], env Env) (Scheme, []arena.Handle, func()) {
			s := newHE(env, Options{MaxThreads: 2, MaxHPs: 4}, adaptive(8))
			pinned := pin(a, s)
			// One published era pins every object born before it and
			// retired after — the whole pinned set.
			s.Protect(1, 0, arena.Nil)
			return s, pinned, func() { s.Clear(1, 0) }
		}},
		{"ibr", 10000, func(a *arena.Arena[tnode], env Env) (Scheme, []arena.Handle, func()) {
			s := newIBR(env, Options{MaxThreads: 2, MaxHPs: 4}, adaptive(8))
			pinned := pin(a, s)
			// A reservation taken after the allocations covers every birth.
			s.BeginOp(1)
			return s, pinned, func() { s.EndOp(1) }
		}},
		{"ebr", 5000, func(a *arena.Arena[tnode], env Env) (Scheme, []arena.Handle, func()) {
			s := newEBR(env, Options{MaxThreads: 2, MaxHPs: 4})
			s.BeginOp(1) // a reader inside an operation stalls the epoch
			return s, pin(a, s), func() { s.EndOp(1) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s, pinned, unpin := tc.setup(a, env)
			eng := s.(thresholder)
			st := s.(ScanStatser).ScanStats()
			minT, maxT := st.MinThreshold, st.MaxThreshold
			for _, h := range pinned {
				s.Retire(0, h)
				if th := eng.threshold(0); th < minT || th > maxT {
					t.Fatalf("threshold %d outside clamps [%d, %d] during grow", th, minT, maxT)
				}
			}
			if th := eng.threshold(0); th != maxT {
				t.Fatalf("threshold %d after pinned churn, want ceiling %d", th, maxT)
			}
			for _, h := range pinned {
				if !a.Valid(h) {
					t.Fatal("pinned object freed while protected")
				}
			}

			unpin()
			for i := 0; i < 500; i++ {
				s.Retire(0, allocNode(a, s))
			}
			if th := eng.threshold(0); th != minT {
				t.Fatalf("threshold %d after free-running churn, want floor %d", th, minT)
			}
			ss := s.(ScanStatser).ScanStats()
			if ss.Scans == 0 || ss.Freed == 0 {
				t.Fatalf("scan stats not booked: %+v", ss)
			}
			if ss.LastFreedRatioBP != tc.lastRatioBP {
				t.Fatalf("last freed ratio %dbp, want %d after unpinned scans", ss.LastFreedRatioBP, tc.lastRatioBP)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Zero-allocation guarantees. Steady-state scans reuse the per-thread
// snapshot buffers; the first scan pays the (single) growth. Each case
// keeps tid 0's retired list non-empty across scans with a reader on
// tid 1 that never lets go.

func TestScanZeroAlloc(t *testing.T) {
	opts := Options{MaxThreads: 4, MaxHPs: 8}
	cases := []struct {
		name  string
		build func(env Env) Scheme
		pin   func(s Scheme, i int, h arena.Handle) // called once per retired object, before its retire
	}{
		{"hp", func(env Env) Scheme { return newHP(env, opts, adaptive(64)) },
			func(s Scheme, i int, h arena.Handle) { s.Protect(1, i, h) }},
		{"he", func(env Env) Scheme { return newHE(env, opts, adaptive(64)) },
			func(s Scheme, i int, _ arena.Handle) {
				if i == 0 {
					s.Protect(1, 0, arena.Nil) // born before, retired after this era
				}
			}},
		{"ibr", func(env Env) Scheme { return newIBR(env, opts, adaptive(64)) },
			func(s Scheme, i int, _ arena.Handle) {
				if i == 0 {
					s.BeginOp(1)
				}
			}},
		{"ebr", func(env Env) Scheme { return newEBR(env, opts) },
			func(s Scheme, i int, _ arena.Handle) {
				if i == 0 {
					s.BeginOp(1)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := tc.build(env)
			hs := make([]arena.Handle, 8)
			for i := range hs {
				hs[i] = allocNode(a, s)
			}
			for i, h := range hs {
				tc.pin(s, i, h)
				s.Retire(0, h)
			}
			s.Flush(0)
			s.Flush(0) // warm: snapshot buffers grown to capacity
			if s.RetireDepth(0) == 0 {
				t.Fatal("retired list drained: the reader pins nothing")
			}
			if got := testing.AllocsPerRun(200, func() { s.Flush(0) }); got != 0 {
				t.Errorf("scan allocates %.1f times per run, want 0", got)
			}
		})
	}
}

// TestProtectFastPathZeroAlloc: the protection hot path — republishing
// a stable target — must not allocate for any scheme.
func TestProtectFastPathZeroAlloc(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 4})
			var slot atomic.Uint64
			slot.Store(uint64(allocNode(a, s)))
			s.BeginOp(0)
			s.GetProtected(0, 0, &slot)
			if got := testing.AllocsPerRun(200, func() { s.GetProtected(0, 0, &slot) }); got != 0 {
				t.Errorf("GetProtected allocates %.1f times per run, want 0", got)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Elision fast path: counters tick, and an elided republish is still a
// protection.

func TestElisionCounters(t *testing.T) {
	a, env := testEnv(t, arena.Strict)

	hp := newHP(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	h := allocNode(a, hp)
	hp.Protect(0, 0, h)
	hp.Protect(0, 0, h) // same handle: elided
	if got := hp.ScanStats().Elisions; got == 0 {
		t.Error("hp: republish of same handle not counted as elision")
	}

	he := newHE(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	he.Protect(0, 0, arena.Nil)
	he.Protect(0, 0, arena.Nil) // clock unchanged: elided
	if got := he.ScanStats().Elisions; got == 0 {
		t.Error("he: republish of current era not counted as elision")
	}

	ibr := newIBR(env, Options{MaxThreads: 2, MaxHPs: 2}, limits{})
	ibr.BeginOp(0)
	ibr.Protect(0, 0, arena.Nil) // upper already covers the clock: elided
	if got := ibr.ScanStats().Elisions; got == 0 {
		t.Error("ibr: covered ratchet not counted as elision")
	}

	ebr := newEBR(env, Options{MaxThreads: 2, MaxHPs: 2})
	ebr.BeginOp(0)
	ebr.BeginOp(0) // epoch unchanged: elided re-announcement
	if got := ebr.ScanStats().Elisions; got == 0 {
		t.Error("ebr: re-announcement of current epoch not counted as elision")
	}
}

// TestElidedRepublishStillProtects: after an elided GetProtected, a
// concurrent retire must still observe the protection — the slot was
// never cleared, so the published value continues to cover the object.
func TestElidedRepublishStillProtects(t *testing.T) {
	for _, name := range lockfreeSchemes() {
		t.Run(name, func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := MustNew(name, env, Options{MaxThreads: 2, MaxHPs: 4})
			var slot atomic.Uint64
			h := allocNode(a, s)
			slot.Store(uint64(h))

			s.BeginOp(0)
			s.GetProtected(0, 0, &slot)
			before := elisionsOf(s)
			got := s.GetProtected(0, 0, &slot) // stable target: elided
			if got != h {
				t.Fatalf("GetProtected = %v, want %v", got, h)
			}
			if name != "he" && name != "ibr" && elisionsOf(s) == before {
				// Era schemes may legitimately store if another test
				// advanced their clock; the pointer schemes must elide.
				t.Fatal("second GetProtected of a stable target did not elide")
			}

			slot.Store(0)
			s.Retire(1, h)
			s.Flush(1)
			if !a.Valid(h) {
				t.Fatal("object freed despite elided (still-published) protection")
			}
			s.ClearAll(0)
			s.EndOp(0)
			s.Flush(1)
			s.Flush(0) // PTB hands the buck to the protector's pending list
			if a.Valid(h) {
				t.Fatal("object not freed after protection dropped")
			}
		})
	}
}

func elisionsOf(s Scheme) uint64 {
	if ss, ok := s.(ScanStatser); ok {
		return ss.ScanStats().Elisions
	}
	return 0
}

// ---------------------------------------------------------------------
// Satellite regression: Retire scans *before* appending, so a stalled
// reader pinning part of the retired set cannot make the list's backing
// array grow past the threshold — each scan culls back below it before
// the append lands.

func TestScanBeforeAppendBoundsRetiredList(t *testing.T) {
	const threshold = 32
	opts := Options{MaxThreads: 2, MaxHPs: 4}
	lim := fixed(threshold) // frozen: the bound is then exact

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"hp", func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := newHP(env, opts, lim)
			for i := 0; i < 4; i++ { // stalled reader pins 4 objects forever
				h := allocNode(a, s)
				s.Protect(1, i, h)
				s.Retire(0, h)
			}
			for i := 0; i < 10000; i++ {
				s.Retire(0, allocNode(a, s))
			}
			assertBounded(t, s.RetireDepth(0), cap(s.tl[0].items), threshold)
		}},
		{"he", func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := newHE(env, opts, lim)
			pins := make([]arena.Handle, 4)
			for i := range pins {
				pins[i] = allocNode(a, s)
			}
			s.Protect(1, 0, arena.Nil) // stalled reader holds this era forever
			for _, h := range pins {
				s.Retire(0, h)
			}
			for i := 0; i < 10000; i++ {
				s.Retire(0, allocNode(a, s))
			}
			assertBounded(t, s.RetireDepth(0), cap(s.tl[0].items), threshold)
		}},
		{"ibr", func(t *testing.T) {
			a, env := testEnv(t, arena.Strict)
			s := newIBR(env, opts, lim)
			pins := make([]arena.Handle, 4)
			for i := range pins {
				pins[i] = allocNode(a, s)
			}
			s.BeginOp(1) // stalled reader's reservation never ends
			for _, h := range pins {
				s.Retire(0, h)
			}
			for i := 0; i < 10000; i++ {
				s.Retire(0, allocNode(a, s))
			}
			assertBounded(t, s.RetireDepth(0), cap(s.tl[0].items), threshold)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

func assertBounded(t *testing.T, depth, capacity, threshold int) {
	t.Helper()
	if depth > threshold+1 {
		t.Errorf("retired depth %d after 10k retires past a stalled reader, want ≤ %d",
			depth, threshold+1)
	}
	// The scan-before-append order means the backing array never needs
	// to hold more than threshold entries: append always follows a cull.
	if capacity > 2*threshold {
		t.Errorf("retired list capacity %d, want ≤ %d (scan-before-append cap)",
			capacity, 2*threshold)
	}
}
