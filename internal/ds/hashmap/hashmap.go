// Package hashmap implements Michael's lock-free hash table [18]: a
// fixed array of bucket roots, each heading a sorted lock-free linked
// list. The paper's §1 motivates OrcGC with exactly this class of
// structure — the hash map is the standard beneficiary of the Michael
// list, and deploying OrcGC on it is again annotation-only. Provided in
// an OrcGC variant and a manual variant parameterized over every scheme
// in internal/reclaim (buckets are plain Michael lists, so all manual
// schemes apply).
//
// Unlike the sentinel-framed lists in internal/ds/list, buckets here are
// nil-terminated from a root Atomic — exercising the no-sentinel shape
// of the algorithms.
package hashmap

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/rt"
)

// Node is a bucket-list node. val is a plain payload word (not a link:
// it never references another tracked object, so it stays outside
// nodeLinks). It is written only while the node is protected, so reads
// through a protected handle are always safe; the speculative Get reads
// it with core.PeekWord and trusts it only once the node validates.
type Node struct {
	key  uint64
	val  atomic.Uint64
	next core.Atomic
}

func nodeLinks(n *Node, visit func(*core.Atomic)) { visit(&n.next) }

func bucketOf(key uint64, nbuckets int) int {
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(nbuckets))
}

// OrcMap is the hash map under OrcGC.
type OrcMap struct {
	d       *core.Domain[Node]
	buckets []core.Atomic
}

// NewOrc builds a map with nbuckets buckets (default 64).
func NewOrc(tid int, nbuckets int, cfg core.DomainConfig) *OrcMap {
	if nbuckets <= 0 {
		nbuckets = 64
	}
	a := arena.New[Node]()
	d := core.NewDomain(a, nodeLinks, cfg)
	_ = tid
	return &OrcMap{d: d, buckets: make([]core.Atomic, nbuckets)}
}

// Domain exposes the OrcGC domain.
func (m *OrcMap) Domain() *core.Domain[Node] { return m.d }

// Destroy drops every bucket root and flushes; quiescent use only.
func (m *OrcMap) Destroy(tid int) {
	for i := range m.buckets {
		m.d.Store(tid, &m.buckets[i], arena.Nil)
	}
	m.d.FlushAll()
}

// find positions (prevA, cur) around key inside the bucket list; cur is
// nil when the key belongs at the end. Marked nodes on the way are
// unlinked (no retire — OrcGC). prev/cur/next rotate by SwapPtr, as in
// the Michael list, so every hop is one fused Load.
func (m *OrcMap) find(tid int, root *core.Atomic, key uint64, prev, cur, next *core.Ptr) (prevA *core.Atomic, found bool) {
	d := m.d
retry:
	for {
		prevA = root
		d.Load(tid, prevA, cur)
		cur.Unmark()
		for {
			if cur.IsNil() {
				return prevA, false
			}
			curN := d.Get(cur.H())
			nextH := d.Load(tid, &curN.next, next)
			if prevA.Raw() != cur.H() {
				continue retry
			}
			if !nextH.Marked() {
				if curN.key >= key {
					return prevA, curN.key == key
				}
				prevA = &curN.next
				d.SwapPtr(tid, prev, cur)
			} else {
				if !d.CAS(tid, prevA, cur.H(), nextH.Unmarked()) {
					continue retry
				}
			}
			d.SwapPtr(tid, cur, next)
			cur.Unmark()
		}
	}
}

// Insert adds key; false if present.
func (m *OrcMap) Insert(tid int, key uint64) bool {
	d := m.d
	root := &m.buckets[bucketOf(key, len(m.buckets))]
	var prev, cur, next, nn core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
		d.Release(tid, &nn)
	}()
	for {
		prevA, found := m.find(tid, root, key, &prev, &cur, &next)
		if found {
			return false
		}
		d.Make(tid, func(n *Node) { n.key = key }, &nn)
		d.InitLink(tid, &d.Get(nn.H()).next, cur.H())
		if d.CAS(tid, prevA, cur.H(), nn.H()) {
			return true
		}
		d.Release(tid, &nn)
	}
}

// Remove deletes key; false if absent.
func (m *OrcMap) Remove(tid int, key uint64) bool {
	d := m.d
	root := &m.buckets[bucketOf(key, len(m.buckets))]
	var prev, cur, next core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
	}()
	for {
		prevA, found := m.find(tid, root, key, &prev, &cur, &next)
		if !found {
			return false
		}
		curN := d.Get(cur.H())
		nextH := d.Load(tid, &curN.next, &next)
		if nextH.Marked() {
			continue
		}
		if !d.CAS(tid, &curN.next, nextH, nextH.WithMark()) {
			continue
		}
		if !d.CAS(tid, prevA, cur.H(), nextH.Unmarked()) {
			m.find(tid, root, key, &prev, &cur, &next)
		}
		return true
	}
}

// peekFind is the read side of find as a speculative walk that publishes
// nothing and never unlinks: for each node it reads key, then val, then
// next, and only then validates the node's generation. ok is false when
// a validation failed; otherwise found answers the query and val is the
// value when found. The value is read before the mark, so a node whose
// next was still unmarked at the later read was in the bucket when its
// value was read (DESIGN §4).
//
//go:norace
func (m *OrcMap) peekFind(tid int, root *core.Atomic, key uint64) (val uint64, found, ok bool) {
	d := m.d
	for h := root.Raw(); !h.IsNil(); {
		n, live := d.Peek(h)
		if !live {
			return 0, false, false
		}
		k := n.key
		v := core.PeekWord(&n.val)
		next := n.next.Peek()
		rt.Step(rt.SitePeek, tid)
		if !d.Unchanged(h) {
			return 0, false, false
		}
		if k >= key {
			return v, k == key && !next.Marked(), true
		}
		h = next.Unmarked()
	}
	return 0, false, true
}

// Get returns the value stored under key. It first tries speculative
// walks, which publish nothing; after core.PeekAttempts failed
// validations it falls back to the protected find.
func (m *OrcMap) Get(tid int, key uint64) (uint64, bool) {
	d := m.d
	root := &m.buckets[bucketOf(key, len(m.buckets))]
	for i := 0; i < core.PeekAttempts; i++ {
		if v, found, ok := m.peekFind(tid, root, key); ok {
			return v, found
		}
		d.PeekFailed(tid)
	}
	var prev, cur, next core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
	}()
	_, found := m.find(tid, root, key, &prev, &cur, &next)
	if !found {
		return 0, false
	}
	return d.Get(cur.H()).val.Load(), true
}

// Put inserts key→val or updates the value of an existing key; it
// returns true when the key was newly inserted. An in-place update
// linearizes at the val store: if the node is found unmarked afterwards
// the update preceded any concurrent removal of that node; if it was
// already marked the removal may have won, so Put retries and inserts a
// fresh node (the mark bit on next is permanent once set).
func (m *OrcMap) Put(tid int, key, val uint64) bool {
	d := m.d
	root := &m.buckets[bucketOf(key, len(m.buckets))]
	var prev, cur, next, nn core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
		d.Release(tid, &nn)
	}()
	for {
		prevA, found := m.find(tid, root, key, &prev, &cur, &next)
		if found {
			curN := d.Get(cur.H())
			curN.val.Store(val)
			if curN.next.Raw().Marked() {
				continue // a concurrent remove may have missed the update
			}
			return false
		}
		d.Make(tid, func(n *Node) {
			n.key = key
			n.val.Store(val)
		}, &nn)
		d.InitLink(tid, &d.Get(nn.H()).next, cur.H())
		if d.CAS(tid, prevA, cur.H(), nn.H()) {
			return true
		}
		d.Release(tid, &nn)
	}
}

// Keys calls emit for every key present; quiescent use only.
func (m *OrcMap) Keys(emit func(key uint64)) {
	for i := range m.buckets {
		for h := m.buckets[i].Raw(); !h.IsNil(); {
			//orcvet:ignore protect Keys is documented quiescent-only: no concurrent writers or reclamation
			n := m.d.Get(h)
			next := n.next.Raw()
			if !next.Marked() {
				emit(n.key)
			}
			h = next.Unmarked()
		}
	}
}

// Contains reports membership: Get without the value.
func (m *OrcMap) Contains(tid int, key uint64) bool {
	_, found := m.Get(tid, key)
	return found
}
