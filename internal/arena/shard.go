package arena

import (
	"fmt"
	"runtime"

	"repro/internal/rt"
)

// This file holds the allocation/free paths over the sharded free-slot
// pool. Three tiers:
//
//  1. per-tid magazines (AllocT/FreeT): plain array push/pop, no shared
//     CAS; spill/refill in batches of magBatch to the tid's home shard;
//  2. sharded Treiber stacks, one per P, with lock-free work-stealing
//     from sibling shards when the home shard runs dry;
//  3. the bump pointer (next), carving never-used slots out of chunks.
//
// The tid-less Alloc/Free keep working for callers without a thread id
// (constructors, tests): they skip the magazines — a magazine is
// single-owner and there is no owner to speak of — and go straight to the
// shard picked by the current P, so both APIs interoperate on one arena.
//
// The statistics stripes count slots that are live or magazine-cached,
// so they are updated only when a slot crosses the pool boundary (shared
// alloc/free, spill, refill): a magazine hit performs no shared-memory
// RMW at all — its atomic work is one generation store plus one
// single-writer counter store.

func (a *Arena[T]) stripeFor(idx uint32) *stripe {
	return &a.stripes[(idx>>stripeShift)&(statStripes-1)]
}

// stripeInc records idx entering the (live ∪ cached) census, maintaining
// the stripe high-water mark.
func (a *Arena[T]) stripeInc(idx uint32) {
	st := a.stripeFor(idx)
	l := st.live.Add(1)
	for {
		m := st.maxLive.Load()
		if l <= m || st.maxLive.CompareAndSwap(m, l) {
			return
		}
	}
}

// stripeDec records idx leaving the census (returned to a shard stack).
func (a *Arena[T]) stripeDec(idx uint32) { a.stripeFor(idx).live.Add(-1) }

// homeShard picks a shard for a caller without a tid: hash by the P the
// goroutine happens to run on, so concurrent tid-less callers spread
// out. The shard index is computed while still pinned, so the pick is
// consistent with the P that made it; the pin is dropped before the
// caller's Treiber-stack CAS loop (popShard yields via runtime.Gosched
// on a chunk-publication race, which must not run pinned). A migration
// between unpin and the stack operation is benign: the index is only a
// contention-spreading hint, and every shard accepts every slot.
func (a *Arena[T]) homeShard() uint32 {
	s := uint32(runtime_procPin()) & a.shardMask
	runtime_procUnpin()
	return s
}

// popShard pops one free slot index from shard s; idxNone when empty.
func (a *Arena[T]) popShard(s uint32) uint32 {
	head := &a.shards[s].head
	for {
		old := head.Load()
		aba, idx := unpackFree(old)
		if idx == idxNone {
			return idxNone
		}
		// Load the slot pointer once: if a racing chunk publication is
		// not yet visible the pointer is nil — back off and retry the
		// whole pop instead of faulting on the nil chunk.
		sl := a.slotAt(idx)
		if sl == nil {
			runtime.Gosched()
			continue
		}
		next := sl.freeNext.Load()
		if head.CompareAndSwap(old, packFree(aba+1, next)) {
			return idx
		}
	}
}

// pushOne pushes a single free slot index onto shard s.
func (a *Arena[T]) pushOne(s uint32, idx uint32) {
	a.pushChain(s, idx, idx)
}

// pushChain splices an already-linked chain first→…→last onto shard s
// with one CAS per attempt (only the chain tail is relinked on retry).
func (a *Arena[T]) pushChain(s uint32, first, last uint32) {
	head := &a.shards[s].head
	lastSlot := a.slotAt(last)
	for {
		old := head.Load()
		aba, h := unpackFree(old)
		lastSlot.freeNext.Store(h)
		if head.CompareAndSwap(old, packFree(aba+1, first)) {
			return
		}
	}
}

// takeShared pops one index from the shard pool, sweeping all shards
// starting at home. idxNone when every shard is empty.
func (a *Arena[T]) takeShared(home uint32) uint32 {
	n := uint32(len(a.shards))
	for d := uint32(0); d < n; d++ {
		if idx := a.popShard((home + d) & a.shardMask); idx != idxNone {
			return idx
		}
	}
	return idxNone
}

// magazineFor returns tid's magazine, creating it on first use; nil for
// out-of-range tids (callers then use the shared path).
func (a *Arena[T]) magazineFor(tid int) *magazine {
	if uint(tid) >= uint(len(a.mags)) {
		return nil
	}
	m := a.mags[tid].Load()
	if m == nil {
		m = new(magazine)
		a.mags[tid].Store(m)
	}
	return m
}

// refill fills tid's empty magazine: a batch from the home shard, else a
// half batch stolen from the first non-empty sibling, else a fresh batch
// carved off the bump pointer. Every acquired slot enters the stripe
// census here, so magazine hits need no accounting of their own.
func (a *Arena[T]) refill(m *magazine, home uint32) {
	a.magRefills.Add(1) // cold path: the magazine is empty
	for m.n < magBatch {
		idx := a.popShard(home)
		if idx == idxNone {
			break
		}
		a.stripeInc(idx)
		m.slots[m.n] = idx
		m.n++
	}
	if m.n > 0 {
		return
	}
	n := uint32(len(a.shards))
	for d := uint32(1); d < n; d++ {
		v := (home + d) & a.shardMask
		for m.n < magBatch/2 {
			idx := a.popShard(v)
			if idx == idxNone {
				break
			}
			a.stripeInc(idx)
			m.slots[m.n] = idx
			m.n++
		}
		if m.n > 0 {
			a.magSteals.Add(1)
			return
		}
	}
	base := uint32(a.next.Add(magBatch) - magBatch)
	for c := base >> a.chunkShift; c <= (base+magBatch-1)>>a.chunkShift; c++ {
		a.ensureChunk(c)
	}
	for i := uint32(0); i < magBatch; i++ {
		a.stripeInc(base + i)
		m.slots[i] = base + i
	}
	m.n = magBatch
}

// spill pushes the oldest magBatch indices of a full magazine to the home
// shard as one pre-linked chain (a single CAS on the shard head), keeping
// the hottest half cached. The spilled slots leave the stripe census.
func (a *Arena[T]) spill(m *magazine, home uint32) {
	a.magSpills.Add(1) // cold path: the magazine is full
	for i := 0; i < magBatch-1; i++ {
		a.slotAt(m.slots[i]).freeNext.Store(m.slots[i+1])
	}
	for i := 0; i < magBatch; i++ {
		a.stripeDec(m.slots[i])
	}
	a.pushChain(home, m.slots[0], m.slots[magBatch-1])
	copy(m.slots[:], m.slots[magBatch:m.n])
	m.n -= magBatch
}

// finishAlloc transitions a claimed free index to live — the generation
// goes odd — and returns the handle plus the zeroed payload. The raw
// counter keeps its full 32-bit width; Pack truncates to the genBits a
// handle carries, and validity checks compare masked.
func (a *Arena[T]) finishAlloc(idx uint32) (Handle, *T) {
	s := a.slotAt(idx)
	g := s.gen.Load()
	if g&1 != 0 {
		panic(fmt.Sprintf("arena: slot %d allocated while live", idx))
	}
	g++ // even→odd (parity survives the genValMask truncation)
	rt.Step(rt.SiteAlloc, -1)
	var zero T
	s.Val = zero
	// Header words are usually already zero (fresh chunks are zero-filled
	// and most schemes never stamp them), so test before storing: the
	// common path is two plain loads, not two sequentially consistent
	// stores.
	if s.HdrA.Load() != 0 {
		s.HdrA.Store(0)
	}
	if s.HdrB.Load() != 0 {
		s.HdrB.Store(0)
	}
	s.gen.Store(g)
	return Pack(idx, g), &s.Val
}

// finishFree validates h, bumps the generation to even — freeing the slot
// and invalidating every outstanding handle in one store — and only then
// poisons the payload, returning the now-ownerless index. The caller
// decides which free pool receives it. The bump runs on the raw
// full-width counter (the handle only knows the masked value, so the raw
// counter is reloaded from the slot); when the masked value would land on
// 0 — the virgin sentinel — the bump skips ahead by 2, keeping parity
// even and reserving masked 0 for slots that were never allocated.
//
// Bump before poison is what makes read-then-validate sound: a slot's
// payload changes only while its generation is even (here and in
// finishAlloc) or before its handle is published (the owner's
// initialization), so a reader that reads fields through TryGet and then
// finds the generation unchanged read the live object, never the husk.
func (a *Arena[T]) finishFree(h Handle) uint32 {
	h = h.Unmarked()
	if h.IsNil() {
		panic("arena: free of nil handle")
	}
	idx := h.Index()
	s := a.slotAt(idx)
	if s == nil {
		panic(fmt.Sprintf("arena: free of %v in unpublished chunk", h))
	}
	g := s.gen.Load()
	if h.Gen()&1 == 0 || g&genValMask != h.Gen() {
		panic(fmt.Sprintf("arena: double free or stale free of %v", h))
	}
	g++
	if g&genValMask == 0 {
		g += 2 // skip the virgin value; parity stays even
	}
	s.gen.Store(g)
	var zero T
	s.Val = zero // poison: stale readers see a zeroed husk
	rt.Step(rt.SiteFree, -1)
	return idx
}

// AllocT carves out a slot for thread tid and returns its handle plus a
// pointer for initialization. The payload and header words are zeroed;
// schemes that stamp headers (eras, orc) do so right after. The common
// case is a magazine hit whose only atomic writes are the slot's own
// generation store and the magazine's single-writer counter.
func (a *Arena[T]) AllocT(tid int) (Handle, *T) {
	m := a.magazineFor(tid)
	if m == nil {
		return a.Alloc()
	}
	if m.n == 0 {
		a.refill(m, uint32(tid)&a.shardMask)
	}
	m.n--
	h, p := a.finishAlloc(m.slots[m.n])
	m.allocs.Store(m.allocs.Load() + 1) // single-writer counter
	return h, p
}

// FreeT returns the object named by h to thread tid's magazine. The slot
// generation is bumped (invalidating every outstanding handle) and the
// payload is poisoned. Freeing a stale or nil handle panics: reclamation
// schemes must free each object exactly once.
func (a *Arena[T]) FreeT(tid int, h Handle) {
	m := a.magazineFor(tid)
	if m == nil {
		a.Free(h)
		return
	}
	idx := a.finishFree(h)
	if m.n == magCap {
		a.spill(m, uint32(tid)&a.shardMask)
	}
	m.slots[m.n] = idx
	m.n++
	m.frees.Store(m.frees.Load() + 1) // single-writer counter
}

// Alloc is the tid-less allocation path: recycle from the shard pool
// (sweeping all shards before growing, so single-threaded free-then-alloc
// always reuses the slot), else carve one fresh slot.
func (a *Arena[T]) Alloc() (Handle, *T) {
	idx := a.takeShared(a.homeShard())
	if idx == idxNone {
		idx = uint32(a.next.Add(1) - 1)
		a.ensureChunk(idx >> a.chunkShift)
	}
	a.stripeInc(idx)
	h, p := a.finishAlloc(idx)
	a.sharedAllocs.Add(1)
	return h, p
}

// Free is the tid-less free path: the slot goes to the shard picked by
// the current P.
func (a *Arena[T]) Free(h Handle) {
	a.freeToShard(a.homeShard(), h)
	a.sharedFrees.Add(1)
}

// freeToShard finishes the free and returns the slot straight to shard s,
// maintaining the stripe census.
func (a *Arena[T]) freeToShard(s uint32, h Handle) {
	idx := a.finishFree(h)
	a.stripeDec(idx)
	a.pushOne(s, idx)
}
