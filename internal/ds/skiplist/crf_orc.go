package skiplist

import (
	"repro/internal/arena"
	"repro/internal/core"
)

// CRFOrc is the paper's new CRF-skip (§5): a Herlihy–Shavit-style skip
// list redesigned so removed nodes are *completely isolated* before
// being left behind. Two changes make that possible:
//
//  1. Insert never publishes a node whose upper-level successor link is
//     stale: before each upper-level link CAS it re-synchronizes the new
//     node's own successor link (closing the book's quirk that lets a
//     linked node point at long-removed nodes).
//  2. The remover that wins the bottom-level mark runs find() (which
//     snips the node off every level) and then *poisons* every
//     successor link, dropping the hard links a removed node would
//     otherwise keep into the structure. Traversals that step on poison
//     restart from the top level.
//
// Restarting makes contains lock-free instead of wait-free, and in
// exchange the unreclaimed population stays linear — the HS-skip vs
// CRF-skip footprint contrast of §5 (≈19 GB vs <1 GB).
type CRFOrc struct {
	d     *core.Domain[Node]
	head  core.Atomic
	tail  core.Atomic
	tailH arena.Handle // tail is root-linked forever, so the bare handle is safe
	rng   *levelRNG
}

// NewCRFOrc builds an empty CRF skip list.
func NewCRFOrc(tid int, cfg core.DomainConfig) *CRFOrc {
	a := arena.New[Node]()
	d := core.NewDomain(a, nodeLinks, cfg)
	s := &CRFOrc{d: d, rng: newLevelRNG(cfg.MaxThreads)}
	var pt, ph core.Ptr
	d.Make(tid, func(n *Node) { n.key, n.topLevel = tailKey, MaxLevels-1 }, &pt)
	d.Make(tid, func(n *Node) { n.key, n.topLevel = headKey, MaxLevels-1 }, &ph)
	hn := d.Get(ph.H())
	for l := 0; l < MaxLevels; l++ {
		d.InitLink(tid, &hn.next[l], pt.H())
	}
	d.Store(tid, &s.head, ph.H())
	d.Store(tid, &s.tail, pt.H())
	s.tailH = pt.H()
	d.Release(tid, &pt)
	d.Release(tid, &ph)
	return s
}

// snipPoisoned handles the rare race where an insert linked a node at an
// upper level after the remover had already isolated and poisoned it:
// the husk's successor link is gone, but upper levels are only
// shortcuts, so truncating the level to the tail sentinel preserves
// correctness (searches fall through to lower levels). The tail is
// permanently root-linked, so its counter can never hit zero and the
// bare-handle CAS is safe. At level 0 the race is impossible (a node is
// always bottom-linked before any remover can find it), so callers
// simply restart there.
func (s *CRFOrc) snipPoisoned(tid, level int, pred *core.Ptr, curr *core.Ptr) {
	if level == 0 {
		return
	}
	s.d.CAS(tid, &s.d.Get(pred.H()).next[level], curr.H(), s.tailH)
}

// Domain exposes the OrcGC domain.
func (s *CRFOrc) Domain() *core.Domain[Node] { return s.d }

// Destroy drops the roots and flushes; quiescent use only.
func (s *CRFOrc) Destroy(tid int) {
	s.d.Store(tid, &s.head, arena.Nil)
	s.d.Store(tid, &s.tail, arena.Nil)
	s.d.FlushAll()
}

func (s *CRFOrc) releaseSeek(tid int, r *orcSeek) {
	for l := 0; l < MaxLevels; l++ {
		s.d.Release(tid, &r.preds[l])
		s.d.Release(tid, &r.succs[l])
	}
}

// find fills the preds/succs windows, snipping marked nodes; stepping on
// a poisoned link restarts the whole descent. pred/curr/succ rotate by
// SwapPtr, as in the Michael list, so each hop is one fused Load.
func (s *CRFOrc) find(tid int, key uint64, r *orcSeek) bool {
	d := s.d
	var pred, curr, succ core.Ptr
	defer func() {
		d.Release(tid, &pred)
		d.Release(tid, &curr)
		d.Release(tid, &succ)
	}()
retry:
	for {
		d.Load(tid, &s.head, &pred)
		for level := MaxLevels - 1; level >= 0; level-- {
			// pred itself may have been poisoned between levels — its
			// links then read as poison, so restart from the head.
			if ch := d.Load(tid, &d.Get(pred.H()).next[level], &curr); isPoison(ch) {
				continue retry
			}
			curr.Unmark()
			for {
				succH := d.Load(tid, &d.Get(curr.H()).next[level], &succ)
				if isPoison(succH) {
					s.snipPoisoned(tid, level, &pred, &curr)
					continue retry // curr is a poisoned husk
				}
				for succH.Marked() {
					if !d.CAS(tid, &d.Get(pred.H()).next[level], curr.H(), succH.Unmarked()) {
						continue retry
					}
					if ch := d.Load(tid, &d.Get(pred.H()).next[level], &curr); isPoison(ch) {
						continue retry
					}
					curr.Unmark()
					succH = d.Load(tid, &d.Get(curr.H()).next[level], &succ)
					if isPoison(succH) {
						s.snipPoisoned(tid, level, &pred, &curr)
						continue retry
					}
				}
				if d.Get(curr.H()).key < key {
					d.SwapPtr(tid, &pred, &curr)
					d.SwapPtr(tid, &curr, &succ)
					curr.Unmark()
				} else {
					break
				}
			}
			d.CopyPtr(tid, &r.preds[level], &pred)
			d.CopyPtr(tid, &r.succs[level], &curr)
		}
		return d.Get(r.succs[0].H()).key == key
	}
}

// Insert adds key; false if present.
func (s *CRFOrc) Insert(tid int, key uint64) bool {
	d := s.d
	topLevel := int32(s.rng.next(tid))
	var r orcSeek
	var nn core.Ptr
	defer s.releaseSeek(tid, &r)
	defer d.Release(tid, &nn)
	for {
		if s.find(tid, key, &r) {
			return false
		}
		d.Make(tid, func(n *Node) { n.key, n.topLevel = key, topLevel }, &nn)
		if s.linkNew(tid, &nn, topLevel, &r) {
			return true
		}
		d.Release(tid, &nn)
	}
}

// Put inserts key→val or updates an existing key's value; true when
// newly inserted. An in-place update linearizes at the val store: the
// bottom-level mark (and poison) are permanent once set, so finding
// next[0] clean after the store proves the update preceded any removal.
func (s *CRFOrc) Put(tid int, key, val uint64) bool {
	d := s.d
	topLevel := int32(s.rng.next(tid))
	var r orcSeek
	var nn core.Ptr
	defer s.releaseSeek(tid, &r)
	defer d.Release(tid, &nn)
	for {
		if s.find(tid, key, &r) {
			nd := d.Get(r.succs[0].H())
			nd.val.Store(val)
			if b := nd.next[0].Raw(); b.Marked() || isPoison(b) {
				continue // a concurrent remove may have missed the update
			}
			return false
		}
		d.Make(tid, func(n *Node) {
			n.key, n.topLevel = key, topLevel
			n.val.Store(val)
		}, &nn)
		if s.linkNew(tid, &nn, topLevel, &r) {
			return true
		}
		d.Release(tid, &nn)
	}
}

// linkNew publishes the prepared node nn at its bottom level and then
// walks the upper levels with the CRF re-synchronization — the shared
// tail of Insert and Put. It reports whether nn was published (false
// means the bottom-level CAS lost and the caller should retry).
func (s *CRFOrc) linkNew(tid int, nn *core.Ptr, topLevel int32, r *orcSeek) bool {
	d := s.d
	var own core.Ptr
	defer d.Release(tid, &own)
	nd := d.Get(nn.H())
	for l := int32(0); l <= topLevel; l++ {
		d.InitLink(tid, &nd.next[l], r.succs[l].H())
	}
	if !d.CAS(tid, &d.Get(r.preds[0].H()).next[0], r.succs[0].H(), nn.H()) {
		return false
	}
	key := nd.key
	for l := int32(1); l <= topLevel; l++ {
		for {
			// Re-synchronize our own successor link before exposing this
			// level — the CRF fix: a linked node never points at a node
			// that was removed before the link was made.
			cur := d.Load(tid, &nd.next[l], &own)
			if cur.Marked() || isPoison(cur) {
				return true // we were removed mid-insert; stop
			}
			if cur != r.succs[l].H() {
				if !d.CAS(tid, &nd.next[l], cur, r.succs[l].H()) {
					continue
				}
			}
			if d.CAS(tid, &d.Get(r.preds[l].H()).next[l], r.succs[l].H(), nn.H()) {
				break
			}
			s.find(tid, key, r)
			if r.succs[0].H() != nn.H() && d.Get(nn.H()).next[0].Raw().Marked() {
				return true // removed while linking; abandon upper levels
			}
		}
	}
	return true
}

// Get returns the value stored under key.
func (s *CRFOrc) Get(tid int, key uint64) (uint64, bool) {
	d := s.d
	var r orcSeek
	defer s.releaseSeek(tid, &r)
	if !s.find(tid, key, &r) {
		return 0, false
	}
	nd := d.Get(r.succs[0].H())
	v := nd.val.Load()
	if b := nd.next[0].Raw(); b.Marked() || isPoison(b) {
		return 0, false
	}
	return v, true
}

// Scan walks level 0 in ascending key order starting at the first live
// key ≥ from, calling emit for up to limit live pairs. Stepping on a
// poisoned husk restarts the walk just past the last emitted key, so
// nothing is emitted twice. Returns the number emitted; emit may stop
// the scan early by returning false.
func (s *CRFOrc) Scan(tid int, from uint64, limit int, emit func(k, v uint64) bool) int {
	d := s.d
	if from < 1 {
		from = 1
	}
	count := 0
	lo := from
	var cur, succ core.Ptr
	defer func() {
		d.Release(tid, &cur)
		d.Release(tid, &succ)
	}()
retry:
	for count < limit && lo < tailKey {
		var r orcSeek
		s.find(tid, lo, &r) // positions succs[0] at the first node ≥ lo
		d.CopyPtr(tid, &cur, &r.succs[0])
		s.releaseSeek(tid, &r)
		for count < limit {
			nd := d.Get(cur.H())
			k := nd.key
			if k == tailKey {
				return count
			}
			v := nd.val.Load()
			succH := d.Load(tid, &nd.next[0], &succ)
			if isPoison(succH) {
				lo = maxU64(lo, k) // k itself may be a husk: re-seek it
				continue retry
			}
			if !succH.Marked() && k >= lo {
				lo = k + 1
				count++
				if !emit(k, v) {
					return count
				}
			}
			d.SwapPtr(tid, &cur, &succ)
			cur.Unmark()
		}
	}
	return count
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Remove deletes key; false if absent.
func (s *CRFOrc) Remove(tid int, key uint64) bool {
	d := s.d
	var r orcSeek
	var node, succ core.Ptr
	defer s.releaseSeek(tid, &r)
	defer func() {
		d.Release(tid, &node)
		d.Release(tid, &succ)
	}()
	if !s.find(tid, key, &r) {
		return false
	}
	d.CopyPtr(tid, &node, &r.succs[0])
	nd := d.Get(node.H())
	for l := nd.topLevel; l >= 1; l-- {
		succH := d.Load(tid, &nd.next[l], &succ)
		for !succH.Marked() && !isPoison(succH) {
			d.CAS(tid, &nd.next[l], succH, succH.WithMark())
			succH = d.Load(tid, &nd.next[l], &succ)
		}
	}
	for {
		succH := d.Load(tid, &nd.next[0], &succ)
		if succH.Marked() || isPoison(succH) {
			return false
		}
		if !d.CAS(tid, &nd.next[0], succH, succH.WithMark()) {
			continue
		}
		// We own the removal: physically unlink everywhere, then poison
		// every level so this husk stops hard-linking live nodes.
		s.find(tid, key, &r)
		for l := nd.topLevel; l >= 0; l-- {
			d.Store(tid, &nd.next[l], poison)
		}
		return true
	}
}

// Contains is the restarting lookup: it walks through marked nodes but
// restarts from the top whenever it steps on a poisoned husk.
func (s *CRFOrc) Contains(tid int, key uint64) bool {
	d := s.d
	var pred, curr, succ core.Ptr
	defer func() {
		d.Release(tid, &pred)
		d.Release(tid, &curr)
		d.Release(tid, &succ)
	}()
retry:
	for {
		d.Load(tid, &s.head, &pred)
		for level := MaxLevels - 1; level >= 0; level-- {
			// pred may have been poisoned since the previous level.
			if ch := d.Load(tid, &d.Get(pred.H()).next[level], &curr); isPoison(ch) {
				continue retry
			}
			curr.Unmark()
			for {
				succH := d.Load(tid, &d.Get(curr.H()).next[level], &succ)
				if isPoison(succH) {
					s.snipPoisoned(tid, level, &pred, &curr)
					continue retry
				}
				for succH.Marked() {
					d.SwapPtr(tid, &curr, &succ)
					curr.Unmark()
					succH = d.Load(tid, &d.Get(curr.H()).next[level], &succ)
					if isPoison(succH) {
						// curr may sit behind other marked nodes here;
						// just restart — a find will snip the husk.
						continue retry
					}
				}
				if d.Get(curr.H()).key < key {
					d.SwapPtr(tid, &pred, &curr)
					d.SwapPtr(tid, &curr, &succ)
					curr.Unmark()
				} else {
					break
				}
			}
		}
		cn := d.Get(curr.H())
		return cn.key == key && !cn.next[0].Raw().Marked()
	}
}
