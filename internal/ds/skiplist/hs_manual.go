package skiplist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/reclaim"
)

//orcvet:file-ignore protect epoch-protected: BeginOp pins the epoch, so raw loads stay dereferenceable until EndOp

// MNode is a manually reclaimed skip-list node. val is a plain payload
// word, written only under the scheme's protection (epoch).
type MNode struct {
	key      uint64
	val      atomic.Uint64
	topLevel int32
	claims   atomic.Int32 // released claims of inserter and remover (see release)
	next     [MaxLevels]atomic.Uint64
}

// HSManual is the Herlihy–Shavit skip list under manual reclamation.
// Only "ebr" and "none" are accepted: the wait-free contains traverses
// marked nodes without any per-pointer protection window the pointer-
// based schemes could validate, and removed nodes keep live successor
// links — the second obstacle of §2. The winning remover retires its
// node after the physical unlink; epoch grace periods keep the chained
// traversals safe.
type HSManual struct {
	a     *arena.Arena[MNode]
	s     reclaim.Scheme
	headH arena.Handle
	tailH arena.Handle
	rng   *levelRNG
}

type mseek struct {
	preds, succs [MaxLevels]arena.Handle
}

// NewHSManual builds a skip list with scheme "ebr" or "none".
func NewHSManual(scheme string, cfg reclaim.Options) *HSManual {
	if scheme != "ebr" && scheme != "none" {
		panic(fmt.Sprintf("skiplist: scheme %q cannot reclaim the HS skip list (only ebr/none)", scheme))
	}
	a := arena.New[MNode]()
	cfg.MaxHPs = 1
	s := &HSManual{a: a, rng: newLevelRNG(max(cfg.MaxThreads, 1))}
	s.s = reclaim.MustNew(scheme, reclaim.Env{Free: a.FreeT, Hdr: a.Header}, cfg)

	th, tn := a.Alloc()
	tn.key, tn.topLevel = tailKey, MaxLevels-1
	s.s.OnAlloc(th)
	hh, hn := a.Alloc()
	hn.key, hn.topLevel = headKey, MaxLevels-1
	for l := 0; l < MaxLevels; l++ {
		hn.next[l].Store(uint64(th))
	}
	s.s.OnAlloc(hh)
	s.headH, s.tailH = hh, th
	return s
}

// Scheme exposes the reclamation scheme.
func (s *HSManual) Scheme() reclaim.Scheme { return s.s }

// Arena exposes the node arena.
func (s *HSManual) Arena() *arena.Arena[MNode] { return s.a }

func (s *HSManual) find(key uint64, r *mseek) bool {
	a := s.a
retry:
	for {
		pred := s.headH
		for level := MaxLevels - 1; level >= 0; level-- {
			curr := arena.Handle(a.Get(pred).next[level].Load()).Unmarked()
			for {
				cn := a.Get(curr)
				succ := arena.Handle(cn.next[level].Load())
				for succ.Marked() {
					if !a.Get(pred).next[level].CompareAndSwap(uint64(curr), uint64(succ.Unmarked())) {
						continue retry
					}
					curr = arena.Handle(a.Get(pred).next[level].Load()).Unmarked()
					cn = a.Get(curr)
					succ = arena.Handle(cn.next[level].Load())
				}
				if cn.key < key {
					pred = curr
					curr = succ.Unmarked()
				} else {
					break
				}
			}
			r.preds[level] = pred
			r.succs[level] = curr
		}
		return a.Get(r.succs[0]).key == key
	}
}

// Insert adds key; false if present.
func (s *HSManual) Insert(tid int, key uint64) bool {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	topLevel := int32(s.rng.next(tid))
	var r mseek
	for {
		if s.find(key, &r) {
			return false
		}
		nh, n := a.AllocT(tid)
		n.key, n.topLevel = key, topLevel
		if s.link(tid, nh, n, &r) {
			return true
		}
	}
}

// link publishes the fresh node nh (key, topLevel and val set) at the
// position r found: level 0 first, which inserts the key, then each
// upper level. It reports false, with nh freed unpublished, when level
// 0 moved since the find. Unlike the book, nh.next[l] is re-pointed at
// the current successor before every upper-level CAS: a successor from
// an older find may have been removed and retired meanwhile, and would
// be reachable again through nh. Linking stops once nh itself is being
// removed (its next[l] is marked).
func (s *HSManual) link(tid int, nh arena.Handle, n *MNode, r *mseek) bool {
	a := s.a
	n.claims.Store(0)
	for l := int32(0); l <= n.topLevel; l++ {
		n.next[l].Store(uint64(r.succs[l]))
	}
	s.s.OnAlloc(nh)
	if !a.Get(r.preds[0]).next[0].CompareAndSwap(uint64(r.succs[0]), uint64(nh)) {
		a.FreeT(tid, nh) // never published
		return false
	}
levels:
	for l := int32(1); l <= n.topLevel; l++ {
		for {
			old := n.next[l].Load()
			if arena.Handle(old).Marked() || !n.next[l].CompareAndSwap(old, uint64(r.succs[l])) {
				break levels
			}
			// A successor with nh's own key is a removed twin the find saw
			// live at this level; linked behind nh, the twin's final find
			// would stop at nh and retire it still linked. Snip it first.
			if a.Get(r.succs[l]).key != n.key &&
				a.Get(r.preds[l]).next[l].CompareAndSwap(uint64(r.succs[l]), uint64(nh)) {
				break
			}
			s.find(n.key, r)
		}
	}
	s.release(tid, nh, r)
	return true
}

// release drops one of a node's two claims: its inserter's, once it has
// stopped linking upper levels, and its winning remover's, once level 0
// is marked. Whoever drops the second unlinks the node from every level
// (find snips each marked node on its path, and nothing can link it
// again) and only then retires it. Retiring right after the remover's
// own find let a still-linking inserter publish the retired node at an
// upper level, where a later reader found it freed.
func (s *HSManual) release(tid int, h arena.Handle, r *mseek) {
	n := s.a.Get(h)
	if n.claims.Add(1) < 2 {
		return
	}
	s.find(n.key, r)
	//orcvet:ignore retire the level-0 mark is the logical delete; find above completes the physical unlink
	s.s.Retire(tid, h)
}

// Remove deletes key; false if absent.
func (s *HSManual) Remove(tid int, key uint64) bool {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	var r mseek
	if !s.find(key, &r) {
		return false
	}
	node := r.succs[0]
	nd := a.Get(node)
	for l := nd.topLevel; l >= 1; l-- {
		succ := arena.Handle(nd.next[l].Load())
		for !succ.Marked() {
			nd.next[l].CompareAndSwap(uint64(succ), uint64(succ.WithMark()))
			succ = arena.Handle(nd.next[l].Load())
		}
	}
	for {
		succ := arena.Handle(nd.next[0].Load())
		if succ.Marked() {
			return false
		}
		if nd.next[0].CompareAndSwap(uint64(succ), uint64(succ.WithMark())) {
			s.release(tid, node, &r)
			return true
		}
	}
}

// Put inserts key→val or updates an existing key's value; true when
// newly inserted. An in-place update linearizes at the val store: the
// bottom-level mark is permanent once set, so finding next[0] unmarked
// after the store proves the update preceded any removal of the node.
func (s *HSManual) Put(tid int, key, val uint64) bool {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	topLevel := int32(s.rng.next(tid))
	var r mseek
	for {
		if s.find(key, &r) {
			nd := a.Get(r.succs[0])
			nd.val.Store(val)
			if arena.Handle(nd.next[0].Load()).Marked() {
				continue // a concurrent remove may have missed the update
			}
			return false
		}
		nh, n := a.AllocT(tid)
		n.key, n.topLevel = key, topLevel
		n.val.Store(val)
		if s.link(tid, nh, n, &r) {
			return true
		}
	}
}

// Get returns the value stored under key, using the book's
// non-restarting descent.
func (s *HSManual) Get(tid int, key uint64) (uint64, bool) {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	curr := s.descend(key)
	cn := a.Get(curr)
	if cn.key != key || arena.Handle(cn.next[0].Load()).Marked() {
		return 0, false
	}
	return cn.val.Load(), true
}

// descend runs the book's wait-free traversal and returns the first
// node with key ≥ the target at level 0 (possibly reached through
// marked nodes, which epoch protection keeps dereferenceable).
func (s *HSManual) descend(key uint64) arena.Handle {
	a := s.a
	pred := s.headH
	var curr arena.Handle
	for level := MaxLevels - 1; level >= 0; level-- {
		curr = arena.Handle(a.Get(pred).next[level].Load()).Unmarked()
		for {
			cn := a.Get(curr)
			succ := arena.Handle(cn.next[level].Load())
			for succ.Marked() {
				curr = succ.Unmarked()
				cn = a.Get(curr)
				succ = arena.Handle(cn.next[level].Load())
			}
			if cn.key < key {
				pred = curr
				curr = succ.Unmarked()
			} else {
				break
			}
		}
	}
	return curr
}

// Scan walks level 0 in ascending key order starting at the first live
// key ≥ from, calling emit for up to limit live pairs (marked nodes are
// traversed but not emitted). It returns the number emitted; emit may
// stop the scan early by returning false. The whole scan runs inside
// one epoch-protected operation — the long-lived-reader shape that
// stresses epoch-based reclamation.
func (s *HSManual) Scan(tid int, from uint64, limit int, emit func(k, v uint64) bool) int {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	if from < 1 {
		from = 1
	}
	curr := s.descend(from)
	count := 0
	for count < limit {
		cn := a.Get(curr)
		if cn.key == tailKey {
			break
		}
		succ := arena.Handle(cn.next[0].Load())
		if !succ.Marked() && cn.key >= from {
			if !emit(cn.key, cn.val.Load()) {
				count++
				break
			}
			count++
		}
		curr = succ.Unmarked()
	}
	return count
}

// Contains is the book's non-restarting lookup.
func (s *HSManual) Contains(tid int, key uint64) bool {
	a := s.a
	s.s.BeginOp(tid)
	defer s.s.EndOp(tid)
	pred := s.headH
	var curr arena.Handle
	for level := MaxLevels - 1; level >= 0; level-- {
		curr = arena.Handle(a.Get(pred).next[level].Load()).Unmarked()
		for {
			cn := a.Get(curr)
			succ := arena.Handle(cn.next[level].Load())
			for succ.Marked() {
				curr = succ.Unmarked()
				cn = a.Get(curr)
				succ = arena.Handle(cn.next[level].Load())
			}
			if cn.key < key {
				pred = curr
				curr = succ.Unmarked()
			} else {
				break
			}
		}
	}
	cn := a.Get(curr)
	return cn.key == key && !arena.Handle(cn.next[0].Load()).Marked()
}
