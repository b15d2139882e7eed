// Package turnqueue reproduces the Correia–Ramalhete "Turn queue" [26]:
// a wait-free MPMC queue in which pending operations are completed in
// *turn* order — helpers scan the per-thread request arrays round-robin
// from the thread that performed the previous operation, so every
// request is reached within a bounded number of queue steps.
//
// The published artifact is a poster plus source; this reproduction
// keeps the structure that matters for the paper's experiments (per-
// thread request slots, deterministic turn arbitration, helping on both
// enqueue and dequeue, node-side consumer arbitration) and documents in
// DESIGN.md that the dequeue completion protocol is a simplification:
// item↔dequeuer matching is arbitrated on the node's request link with
// reassignment, giving lock-free progress with round-robin fairness
// rather than the original's strict wait-freedom.
package turnqueue

import (
	"repro/internal/arena"
	"repro/internal/core"
)

// consumed is the reqLink tombstone installed when the node's item has
// been delivered and the head has moved past it: a nil reference (so it
// keeps no hard link — OrcGC needs unreachable objects acyclic) whose
// mark bit distinguishes it from the armed-empty state. Plain nil means
// "no dequeuer chosen yet" and may be CASed to a request; the tombstone
// is terminal. Without it, a helper still arbitrating on an already-
// consumed node would observe the broken cycle as plain nil, re-arm the
// link with a fresh request, and deliver the node a second time — the
// surplus-dequeue race TestConcurrentConservation used to trip under
// the race detector.
var consumed = arena.Nil.WithMark()

// Obj is a queue node or a dequeue request.
type Obj struct {
	item    uint64
	owner   int32       // creator (enqueuer tid / request owner)
	next    core.Atomic // node: successor
	reqLink core.Atomic // node: the request consuming this node
	result  core.Atomic // request: delivered node, or the empty marker
}

func objLinks(o *Obj, visit func(*core.Atomic)) {
	visit(&o.next)
	visit(&o.reqLink)
	visit(&o.result)
}

// OrcQueue is the turn queue under OrcGC.
type OrcQueue struct {
	d         *core.Domain[Obj]
	nthr      int
	head      core.Atomic
	tail      core.Atomic
	emptyRoot core.Atomic   // permanent root link for the empty marker
	emptyH    arena.Handle  // "queue was empty" verdict marker
	enqs      []core.Atomic // pending enqueue nodes, one slot per thread
	deqs      []core.Atomic // pending dequeue requests, one slot per thread
}

// NewOrc builds an empty queue.
func NewOrc(tid int, cfg core.DomainConfig) *OrcQueue {
	a := arena.New[Obj]()
	d := core.NewDomain(a, objLinks, cfg)
	q := &OrcQueue{d: d, nthr: cfg.MaxThreads}
	if q.nthr <= 0 {
		q.nthr = 64
	}
	q.enqs = make([]core.Atomic, q.nthr)
	q.deqs = make([]core.Atomic, q.nthr)

	var p core.Ptr
	d.Make(tid, func(o *Obj) { o.owner = -1 }, &p) // sentinel
	d.Store(tid, &q.head, p.H())
	d.Store(tid, &q.tail, p.H())
	d.Release(tid, &p)
	d.Make(tid, func(o *Obj) { o.owner = -1 }, &p) // empty marker
	d.Store(tid, &q.emptyRoot, p.H())
	q.emptyH = p.H()
	d.Release(tid, &p)
	return q
}

// Domain exposes the OrcGC domain.
func (q *OrcQueue) Domain() *core.Domain[Obj] { return q.d }

// Enqueue publishes the node as this thread's request and helps the
// queue forward until some thread (possibly this one) links it. The node
// to link after the current tail is chosen deterministically: the first
// pending slot scanning cyclically from the tail node's owner + 1 — the
// "turn".
func (q *OrcQueue) Enqueue(tid int, item uint64) {
	d := q.d
	var node, ltail, lnext, cand core.Ptr
	defer func() {
		d.Release(tid, &node)
		d.Release(tid, &ltail)
		d.Release(tid, &lnext)
		d.Release(tid, &cand)
	}()
	d.Make(tid, func(o *Obj) {
		o.item = item
		o.owner = int32(tid)
	}, &node)
	d.Store(tid, &q.enqs[tid], node.H())

	for q.enqs[tid].Raw() == node.H() {
		th := d.Load(tid, &q.tail, &ltail)
		tn := d.Get(th)
		nh := d.Load(tid, &tn.next, &lnext)
		if !nh.IsNil() {
			// Complete the in-flight link: clear its request slot
			// first, then swing the tail.
			ow := d.Get(nh).owner
			if ow >= 0 && int(ow) < q.nthr {
				d.CAS(tid, &q.enqs[ow], nh, arena.Nil)
			}
			d.CAS(tid, &q.tail, th, nh)
			continue
		}
		// Whose turn? First pending slot from tail-owner+1, cyclically.
		start := int(tn.owner) + 1
		linked := false
		for j := 0; j < q.nthr; j++ {
			i := (start + j) % q.nthr
			if q.enqs[i].Raw().IsNil() {
				continue
			}
			rh := d.Load(tid, &q.enqs[i], &cand)
			if rh.IsNil() {
				continue
			}
			d.CAS(tid, &tn.next, arena.Nil, rh)
			linked = true
			break
		}
		if !linked {
			break // no pending requests at all (ours must be done)
		}
	}
}

// Dequeue removes the oldest item; ok=false when the queue was observed
// empty. Completion is helper-driven: a request finishes either with a
// node or with the empty marker — it is never withdrawn, so no item can
// be delivered into a vanished request.
func (q *OrcQueue) Dequeue(tid int) (uint64, bool) {
	d := q.d
	var req, res core.Ptr
	defer func() {
		d.Release(tid, &req)
		d.Release(tid, &res)
	}()
	d.Make(tid, func(o *Obj) { o.owner = int32(tid) }, &req)
	d.Store(tid, &q.deqs[tid], req.H())

	for {
		if rh := d.Load(tid, &d.Get(req.H()).result, &res); !rh.IsNil() {
			d.CAS(tid, &q.deqs[tid], req.H(), arena.Nil) // vacate the slot
			if rh.Unmarked() == q.emptyH.Unmarked() {
				return 0, false
			}
			return d.Get(rh).item, true
		}
		q.serve(tid)
	}
}

// turnAfter is where the dequeue turn scan starts after the request pl
// names: its owner + 1, or 0 when there is none. pl is not protected, so
// the owner is read speculatively and counts only if pl still validates
// afterwards; a request freed meanwhile restarts the turn at 0.
//
//go:norace
func (q *OrcQueue) turnAfter(pl arena.Handle) int {
	if pl.IsNil() {
		return 0
	}
	req, ok := q.d.Peek(pl)
	if !ok {
		return 0
	}
	owner := req.owner
	if !q.d.Unchanged(pl) {
		return 0
	}
	return int(owner) + 1
}

// serve performs one helping step of the dequeue protocol.
func (q *OrcQueue) serve(tid int) {
	d := q.d
	var lhead, lnext, r, cand core.Ptr
	defer func() {
		d.Release(tid, &lhead)
		d.Release(tid, &lnext)
		d.Release(tid, &r)
		d.Release(tid, &cand)
	}()
	hh := d.Load(tid, &q.head, &lhead)
	hn := d.Get(hh)
	nh := d.Load(tid, &hn.next, &lnext)
	if q.head.Raw() != hh {
		return
	}
	if nh.IsNil() {
		// Empty: deliver the verdict to every request that is pending
		// while emptiness still holds (re-validated per request so the
		// verdict lands inside each request's own interval).
		for i := 0; i < q.nthr; i++ {
			if q.deqs[i].Raw().IsNil() {
				continue
			}
			rh := d.Load(tid, &q.deqs[i], &r)
			if rh.IsNil() {
				continue
			}
			if q.head.Raw() != hh || !hn.next.Raw().IsNil() {
				return // emptiness no longer holds
			}
			d.CAS(tid, &d.Get(rh).result, arena.Nil, q.emptyH)
		}
		return
	}
	// An item is available: arbitrate on the node's request link.
	node := d.Get(nh)
	for {
		cur := d.Load(tid, &node.reqLink, &r)
		if cur == consumed {
			return // node already delivered; we are a stale helper
		}
		if cur.IsNil() {
			// Choose the next dequeuer in turn order: scan from the
			// previous consumer's owner + 1.
			start := q.turnAfter(hn.reqLink.Raw())
			chosen := false
			for j := 0; j < q.nthr; j++ {
				i := (start + j) % q.nthr
				if q.deqs[i].Raw().IsNil() {
					continue
				}
				ch := d.Load(tid, &q.deqs[i], &cand)
				if ch.IsNil() || !d.Get(ch).result.Raw().IsNil() {
					continue
				}
				d.CAS(tid, &node.reqLink, arena.Nil, ch)
				chosen = true
				break
			}
			if !chosen {
				return // no pending dequeuers (we must have been served)
			}
			continue
		}
		reqObj := d.Get(cur)
		resH := reqObj.result.Raw()
		switch {
		case resH.IsNil():
			d.CAS(tid, &reqObj.result, arena.Nil, nh)
		case resH.Unmarked() == nh.Unmarked():
			// Delivered: vacate the winner's slot and advance head.
			ow := int(reqObj.owner)
			if ow >= 0 && ow < q.nthr {
				d.CAS(tid, &q.deqs[ow], cur, arena.Nil)
			}
			d.CAS(tid, &q.head, hh, nh)
			// OrcGC needs unreachable objects acyclic, but a consumed
			// node and its request reference each other (reqLink vs
			// result). Once head has moved past hh its reqLink is no
			// longer the turn anchor: break the cycle there. The link is
			// replaced with the consumed tombstone, never plain nil —
			// plain nil would read as "no dequeuer chosen" to a stale
			// helper, which could then re-arm the link and deliver hh's
			// item a second time.
			if pl := hn.reqLink.Raw(); !pl.IsNil() {
				d.CAS(tid, &hn.reqLink, pl, consumed)
			}
			return
		default:
			// The linked request completed with something else (e.g.
			// an empty verdict raced in): pass the turn along.
			next := int(reqObj.owner) + 1
			reassigned := false
			for j := 0; j < q.nthr; j++ {
				i := (next + j) % q.nthr
				if q.deqs[i].Raw().IsNil() {
					continue
				}
				ch := d.Load(tid, &q.deqs[i], &cand)
				if ch.IsNil() || ch == cur || !d.Get(ch).result.Raw().IsNil() {
					continue
				}
				d.CAS(tid, &node.reqLink, cur, ch)
				reassigned = true
				break
			}
			if !reassigned {
				return
			}
		}
	}
}

// Drain empties the queue and drops every root; quiescent use only.
func (q *OrcQueue) Drain(tid int) {
	for {
		if _, ok := q.Dequeue(tid); !ok {
			break
		}
	}
	d := q.d
	for i := range q.enqs {
		d.Store(tid, &q.enqs[i], arena.Nil)
		d.Store(tid, &q.deqs[i], arena.Nil)
	}
	// The final head still cycles with the request that consumed it;
	// break that last cycle before dropping the root.
	var hp core.Ptr
	if hh := d.Load(tid, &q.head, &hp); !hh.IsNil() {
		hn := d.Get(hh)
		if pl := hn.reqLink.Raw(); !pl.IsNil() {
			d.CAS(tid, &hn.reqLink, pl, consumed)
		}
	}
	d.Release(tid, &hp)
	d.Store(tid, &q.head, arena.Nil)
	d.Store(tid, &q.tail, arena.Nil)
	d.Store(tid, &q.emptyRoot, arena.Nil)
	d.FlushAll()
}
