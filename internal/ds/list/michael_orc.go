package list

import (
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/rt"
)

// ONode is the node type shared by all OrcGC-annotated lists: one key,
// one orc-tracked successor link (the mark bit travels in the handle's
// tag, as in the C++ artifact's pointer low bits).
type ONode struct {
	key  uint64
	next core.Atomic
}

func onodeLinks(n *ONode, visit func(*core.Atomic)) { visit(&n.next) }

// orcListBase carries the pieces common to the three OrcGC lists.
type orcListBase struct {
	d     *core.Domain[ONode]
	head  core.Atomic // root hard link to the head sentinel
	tail  core.Atomic // root hard link to the tail sentinel
	headH arena.Handle
	tailH arena.Handle
}

func initOrcListBase(b *orcListBase, tid int, cfg core.DomainConfig) {
	a := arena.New[ONode]()
	d := core.NewDomain(a, onodeLinks, cfg)
	b.d = d

	var pt, ph core.Ptr
	b.tailH = d.Make(tid, func(n *ONode) { n.key = tailKey }, &pt)
	b.headH = d.Make(tid, func(n *ONode) { n.key = headKey }, &ph)
	d.InitLink(tid, &d.Get(b.headH).next, b.tailH)
	d.Store(tid, &b.head, ph.H())
	d.Store(tid, &b.tail, pt.H())
	d.Release(tid, &pt)
	d.Release(tid, &ph)
}

// Domain exposes the OrcGC domain.
func (b *orcListBase) Domain() *core.Domain[ONode] { return b.d }

// Destroy drops the roots and flushes; quiescent use only.
func (b *orcListBase) Destroy(tid int) {
	b.d.Store(tid, &b.head, arena.Nil)
	b.d.Store(tid, &b.tail, arena.Nil)
	b.d.FlushAll()
}

// MichaelOrc is Michael's list with OrcGC deployed by the paper's
// methodology: identical control flow to ManualList, but no Protect,
// Retire or Clear calls — only annotated loads, stores and CASes.
type MichaelOrc struct {
	orcListBase
}

// NewMichaelOrc builds an empty OrcGC Michael list.
func NewMichaelOrc(tid int, cfg core.DomainConfig) *MichaelOrc {
	l := &MichaelOrc{}
	initOrcListBase(&l.orcListBase, tid, cfg)
	return l
}

// find positions (prevA, cur) around key. prev/cur/next are caller-owned
// Ptrs so operations can reuse the claimed hazard indices across
// retries; on return cur references the first node with key' >= key.
// The window advances by SwapPtr rotation rather than CopyPtr, so each
// Ptr keeps a private index and every hop is one fused Load.
func (l *MichaelOrc) find(tid int, key uint64, prev, cur, next *core.Ptr) (prevA *core.Atomic, found bool) {
	d := l.d
retry:
	for {
		prevA = &d.Get(l.headH).next
		d.Load(tid, prevA, cur)
		cur.Unmark()
		for {
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
				// Unlink the marked node; OrcGC notices the lost hard
				// link and reclaims it — no retire call.
				if !d.CAS(tid, prevA, cur.H(), nextH.Unmarked()) {
					continue retry
				}
			}
			d.SwapPtr(tid, cur, next)
			cur.Unmark()
		}
	}
}

// Insert adds key; false if already present.
func (l *MichaelOrc) Insert(tid int, key uint64) bool {
	d := l.d
	var prev, cur, next, nn core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
		d.Release(tid, &nn)
	}()
	for {
		prevA, found := l.find(tid, key, &prev, &cur, &next)
		if found {
			return false
		}
		d.Make(tid, func(n *ONode) { n.key = key }, &nn)
		d.InitLink(tid, &d.Get(nn.H()).next, cur.H())
		if d.CAS(tid, prevA, cur.H(), nn.H()) {
			return true
		}
		// CAS failed: nn was never published; releasing it lets OrcGC
		// collect it (and drop its link to cur) automatically.
		d.Release(tid, &nn)
	}
}

// Remove deletes key; false if absent.
func (l *MichaelOrc) Remove(tid int, key uint64) bool {
	d := l.d
	var prev, cur, next core.Ptr
	defer func() {
		d.Release(tid, &prev)
		d.Release(tid, &cur)
		d.Release(tid, &next)
	}()
	for {
		prevA, found := l.find(tid, key, &prev, &cur, &next)
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
			l.find(tid, key, &prev, &cur, &next) // help the unlink
		}
		return true
	}
}

// peekContains is Contains as a speculative walk that publishes nothing
// and never unlinks: for each node it reads key then next, and only then
// validates the node's generation. ok is false when a validation failed;
// otherwise found answers the query: a node holding key whose next was
// unmarked when read was in the list at that moment (DESIGN §4).
//
//go:norace
func (l *MichaelOrc) peekContains(tid int, key uint64) (found, ok bool) {
	d := l.d
	h := l.headH
	for {
		n, live := d.Peek(h)
		if !live {
			return false, false
		}
		k := n.key
		next := n.next.Peek()
		rt.Step(rt.SitePeek, tid)
		if !d.Unchanged(h) {
			return false, false
		}
		if k >= key {
			return k == key && !next.Marked(), true
		}
		h = next.Unmarked()
	}
}

// Contains reports membership. It first tries speculative walks, which
// publish nothing; after core.PeekAttempts failed validations it falls
// back to the protected find.
func (l *MichaelOrc) Contains(tid int, key uint64) bool {
	d := l.d
	for i := 0; i < core.PeekAttempts; i++ {
		if found, ok := l.peekContains(tid, key); ok {
			return found
		}
		d.PeekFailed(tid)
	}
	var prev, cur, next core.Ptr
	_, found := l.find(tid, key, &prev, &cur, &next)
	d.Release(tid, &prev)
	d.Release(tid, &cur)
	d.Release(tid, &next)
	return found
}
