package skiplist

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
)

// Node is a skip-list node: key, height, and one orc link per level.
// val is a plain payload word (never a link, so it stays outside
// nodeLinks); it is written only while the node is protected.
type Node struct {
	key      uint64
	val      atomic.Uint64
	topLevel int32
	next     [MaxLevels]core.Atomic
}

// nodeLinks visits levels 0..topLevel only: inserts link no level
// above a node's topLevel, and the arena zeroes a slot on free, so a
// reused short node's upper links are nil (TestUpperLinksStayNil).
func nodeLinks(n *Node, visit func(*core.Atomic)) {
	for l := range n.next[:n.topLevel+1] {
		visit(&n.next[l])
	}
}

// orcSeek carries the per-operation preds/succs windows as live Ptrs.
type orcSeek struct {
	preds, succs [MaxLevels]core.Ptr
}

// HSOrc is the Herlihy–Shavit lock-free skip list under OrcGC, ported
// verbatim from the book's Java — including the stale upper-level
// successor links its insert leaves behind, which are what let removed
// nodes chain together and inflate the unreclaimed-memory footprint the
// paper measures (≈19 GB vs CRF's <1 GB).
type HSOrc struct {
	d    *core.Domain[Node]
	head core.Atomic
	tail core.Atomic
	rng  *levelRNG
}

// NewHSOrc builds an empty skip list.
func NewHSOrc(tid int, cfg core.DomainConfig) *HSOrc {
	a := arena.New[Node]()
	d := core.NewDomain(a, nodeLinks, cfg)
	s := &HSOrc{d: d, rng: newLevelRNG(cfg.MaxThreads)}
	s.initSentinels(tid)
	return s
}

func (s *HSOrc) initSentinels(tid int) {
	d := s.d
	var pt, ph core.Ptr
	d.Make(tid, func(n *Node) { n.key, n.topLevel = tailKey, MaxLevels-1 }, &pt)
	d.Make(tid, func(n *Node) { n.key, n.topLevel = headKey, MaxLevels-1 }, &ph)
	hn := d.Get(ph.H())
	for l := 0; l < MaxLevels; l++ {
		d.InitLink(tid, &hn.next[l], pt.H())
	}
	d.Store(tid, &s.head, ph.H())
	d.Store(tid, &s.tail, pt.H())
	d.Release(tid, &pt)
	d.Release(tid, &ph)
}

// Domain exposes the OrcGC domain.
func (s *HSOrc) Domain() *core.Domain[Node] { return s.d }

// Destroy drops the roots and flushes; quiescent use only.
func (s *HSOrc) Destroy(tid int) {
	s.d.Store(tid, &s.head, arena.Nil)
	s.d.Store(tid, &s.tail, arena.Nil)
	s.d.FlushAll()
}

func (s *HSOrc) releaseSeek(tid int, r *orcSeek) {
	for l := 0; l < MaxLevels; l++ {
		s.d.Release(tid, &r.preds[l])
		s.d.Release(tid, &r.succs[l])
	}
}

// find fills the preds/succs windows around key, snipping marked nodes
// off every level it descends through. Restarts on any failed snip.
func (s *HSOrc) find(tid int, key uint64, r *orcSeek) bool {
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
			d.Load(tid, &d.Get(pred.H()).next[level], &curr)
			curr.Unmark()
			for {
				succH := d.Load(tid, &d.Get(curr.H()).next[level], &succ)
				for succH.Marked() {
					if !d.CAS(tid, &d.Get(pred.H()).next[level], curr.H(), succH.Unmarked()) {
						continue retry
					}
					d.Load(tid, &d.Get(pred.H()).next[level], &curr)
					curr.Unmark()
					succH = d.Load(tid, &d.Get(curr.H()).next[level], &succ)
				}
				if d.Get(curr.H()).key < key {
					d.CopyPtr(tid, &pred, &curr)
					d.CopyPtr(tid, &curr, &succ)
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
func (s *HSOrc) Insert(tid int, key uint64) bool {
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
		nd := d.Get(nn.H())
		for l := int32(0); l <= topLevel; l++ {
			d.InitLink(tid, &nd.next[l], r.succs[l].H())
		}
		if !d.CAS(tid, &d.Get(r.preds[0].H()).next[0], r.succs[0].H(), nn.H()) {
			d.Release(tid, &nn) // auto-collected, links unwound
			continue
		}
		for l := int32(1); l <= topLevel; l++ {
			for {
				if d.CAS(tid, &d.Get(r.preds[l].H()).next[l], r.succs[l].H(), nn.H()) {
					break
				}
				// Book-faithful: refresh the window but do NOT update
				// nn.next[l] — the stale link is HS-skip's signature.
				s.find(tid, key, &r)
			}
		}
		return true
	}
}

// Remove deletes key; false if absent.
func (s *HSOrc) Remove(tid int, key uint64) bool {
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
		for !succH.Marked() {
			d.CAS(tid, &nd.next[l], succH, succH.WithMark())
			succH = d.Load(tid, &nd.next[l], &succ)
		}
	}
	for {
		succH := d.Load(tid, &nd.next[0], &succ)
		if succH.Marked() {
			return false // another remover won
		}
		if d.CAS(tid, &nd.next[0], succH, succH.WithMark()) {
			s.find(tid, key, &r) // physical unlink; no retire under OrcGC
			return true
		}
	}
}

// Contains descends without restarting, walking straight through marked
// nodes — the wait-free lookup whose price is the chained unreclaimed
// nodes the paper measures.
func (s *HSOrc) Contains(tid int, key uint64) bool {
	d := s.d
	var pred, curr, succ core.Ptr
	defer func() {
		d.Release(tid, &pred)
		d.Release(tid, &curr)
		d.Release(tid, &succ)
	}()
	d.Load(tid, &s.head, &pred)
	found := false
	for level := MaxLevels - 1; level >= 0; level-- {
		d.Load(tid, &d.Get(pred.H()).next[level], &curr)
		curr.Unmark()
		for {
			succH := d.Load(tid, &d.Get(curr.H()).next[level], &succ)
			for succH.Marked() {
				d.CopyPtr(tid, &curr, &succ)
				curr.Unmark()
				succH = d.Load(tid, &d.Get(curr.H()).next[level], &succ)
			}
			if d.Get(curr.H()).key < key {
				d.CopyPtr(tid, &pred, &curr)
				d.CopyPtr(tid, &curr, &succ)
				curr.Unmark()
			} else {
				break
			}
		}
		if level == 0 {
			found = d.Get(curr.H()).key == key && !d.Get(curr.H()).next[0].Raw().Marked()
		}
	}
	return found
}
