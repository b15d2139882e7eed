package cluster

// The proxy fast path: pooled per-op state machines that replace the
// PR-7 goroutine-per-op dispatch. A steady-state proxied Get or Put
// costs zero goroutine spawns and zero heap allocations — the op is
// driven entirely by goroutines that already exist (the client reader
// that starts it, the lane receivers that complete its backend calls,
// and, for a hedged read that actually fires, the op's own reusable
// timer callback), and every piece of per-op state lives in a pool:
// the op itself, its calls, its forwarded frame, and its response
// buffers.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
)

// getOp is the state machine behind a proxied GET: primary submission,
// p99-derived hedging, sequential failover, shed pass-through, and
// budget forwarding — the exact decision tree PR-7 ran on a parked
// goroutine with timers and channel selects, folded into a small
// lock-protected struct driven by completions.
//
// Locking: mu serializes the event handlers (backendDone, the hedge
// timer callback, failover). Submissions never happen with mu held — a
// submission can complete inline (the test seam, or a lane receiver
// racing ahead) and the completion handler takes mu.
//
// Lifetime: refs counts the reasons the op must stay out of the pool —
// one per in-flight backend call, one while the hedge timer is armed
// (its callback may already be running when the op settles), and one
// held by the starting goroutine across setup. The last release
// recycles; the timer itself is kept and re-armed with Reset, so a
// pooled op's hedge costs no allocation either.
type getOp struct {
	p        *Proxy
	ca       *call    // client-facing call; answered exactly once
	frame    *wireBuf // forwarded request frame (budget-flagged iff deadline set)
	deadline time.Time

	refs atomic.Int32

	mu          sync.Mutex
	cands       [maxReplicas]*backend
	ncand       int
	next        int   // next candidate index (hedge target / failover)
	outstanding int   // backend calls in flight
	finished    bool  // client answered; late completions just recycle
	retried     bool  // readRetries counted for this op
	armed       bool  // hedge timer armed for this incarnation
	lastShed    uint8 // most recent refusal status seen

	timer *time.Timer // created once per pooled op, re-armed with Reset
}

var getOpPool = sync.Pool{New: func() any { return &getOp{} }}

// startGet begins a proxied GET on the client reader's goroutine. The
// request bytes are captured into the op's pooled frame before return;
// the caller's buffer may be reused immediately. The primary's lane
// joins ls, which the reader flushes before it parks.
func (p *Proxy) startGet(req []byte, key uint64, deadline time.Time, ca *call, ls *laneSet) {
	op := getOpPool.Get().(*getOp)
	op.p, op.ca, op.deadline = p, ca, deadline
	op.ncand, op.next, op.outstanding = 0, 0, 0
	op.finished, op.retried, op.armed = false, false, false
	op.lastShed = 0
	op.refs.Store(1) // setup hold

	var cbuf [maxReplicas]*backend
	cands := p.readSet(key, cbuf[:0])
	if len(cands) == 0 {
		op.finished = true
		ca.fail(errNoReplica)
		op.release()
		return
	}
	op.ncand = copy(op.cands[:], cands)

	// Master frame: the client's request re-framed once, with the
	// budget field (when a deadline applies) in a fixed spot so each
	// backend submission can rewrite it in place instead of re-encoding.
	fr := getWire()
	if deadline.IsZero() {
		fr.b = kvstore.AppendFrame(fr.b, req)
	} else {
		b, fs := kvstore.BeginFrame(fr.b)
		b = kvstore.AppendBudget(b, req[0], time.Until(deadline))
		fr.b = kvstore.EndFrame(append(b, req[1:]...), fs)
	}
	op.frame = fr

	b := op.cands[0]
	op.next = 1
	bfr := op.frameFor(b)
	if bfr == nil {
		p.deadlineRejects.Add(1)
		op.finished = true
		completeStatus(ca, kvstore.StatusDeadlineExceeded)
		op.release()
		return
	}
	bc := op.newCall(b, false)
	op.mu.Lock()
	op.outstanding++
	op.mu.Unlock()
	ok, _ := b.submit(bfr, bc, ls) // blocking is fine: reader context, backpressure intended
	if bfr != fr {
		bfr.unref()
	}
	if !ok {
		op.mu.Lock()
		op.outstanding--
		op.retried = true
		op.mu.Unlock()
		putCall(bc)
		op.release() // the failed call's ref
		b.suspect()
		p.readRetries.Add(1)
		op.failover()
		op.release()
		return
	}
	if op.ncand > 1 {
		op.arm(b.hedgeDelay())
	}
	op.release()
}

// newCall allocates (from the pool) one backend call owned by this op;
// the call holds a reference on the op until its completion handler —
// or the failed-submit path — releases it.
func (op *getOp) newCall(b *backend, hedge bool) *call {
	bc := getCall(op)
	bc.srcB = b
	bc.isHedge = hedge
	op.refs.Add(1)
	return bc
}

// frameFor returns the frame to submit to b: the shared master when the
// op holds the sole reference (budget rewritten in place), or a pooled
// clone when some lane still has the master queued. nil means the
// budget — minus b's observed RTT — is already spent and the caller
// must fast-fail instead of doing dead work. Callers unref the result
// iff it is not op.frame.
func (op *getOp) frameFor(b *backend) *wireBuf {
	if op.deadline.IsZero() {
		return op.frame
	}
	rem := time.Until(op.deadline)
	// The backend's budget clock restarts at its parse, so the hop over
	// there must be paid out of the forwarded budget here. A cold RTT
	// estimate reads 0, but the hop is never actually free — floor it,
	// or a degenerate budget survives the trip and gets executed.
	hop := b.netRTT()
	if hop < minHopCost {
		hop = minHopCost
	}
	if rem -= hop; rem <= 0 {
		return nil
	}
	if op.frame.refs.Load() == 1 {
		kvstore.RewriteFrameBudget(op.frame.b, rem)
		return op.frame
	}
	nf := getWire()
	nf.b = append(nf.b, op.frame.b...)
	kvstore.RewriteFrameBudget(nf.b, rem)
	return nf
}

// arm schedules the hedge: if the primary has not answered within its
// p99-derived delay, the next candidate gets a copy.
func (op *getOp) arm(d time.Duration) {
	op.mu.Lock()
	if op.finished || op.retried {
		// Already answered, or already failing over sequentially — a
		// hedge on top of a retry would be a third copy in flight.
		op.mu.Unlock()
		return
	}
	op.armed = true
	op.refs.Add(1)
	if op.timer == nil {
		op.timer = time.AfterFunc(d, op.hedgeFire)
	} else {
		op.timer.Reset(d)
	}
	op.mu.Unlock()
}

// disarmLocked cancels a pending hedge timer; mu held. If Stop loses —
// the callback already fired or is running — the callback keeps its
// reference and will see armed == false. The direct decrement cannot
// be the last reference: every caller holds one of its own.
func (op *getOp) disarmLocked() {
	if op.armed {
		op.armed = false
		if op.timer.Stop() {
			op.refs.Add(-1)
		}
	}
}

// hedgeFire is the timer callback: fire one speculative read at the
// next candidate, written to its lane at once — the client's reader is
// parked and writes nothing more for this op. Refusals to submit are
// quiet — a full or dead lane just means the primary is waited out,
// matching the PR-7 flow (the consumed candidate is skipped if
// failover follows).
func (op *getOp) hedgeFire() {
	op.mu.Lock()
	if !op.armed || op.finished {
		op.mu.Unlock()
		op.release()
		return
	}
	op.armed = false
	if op.next >= op.ncand {
		op.mu.Unlock()
		op.release()
		return
	}
	b := op.cands[op.next]
	op.next++
	op.mu.Unlock()
	op.p.hedges.Add(1)

	bfr := op.frameFor(b)
	if bfr == nil {
		op.release() // no budget left for a hedge: wait the primary out
		return
	}
	bc := op.newCall(b, true)
	op.mu.Lock()
	op.outstanding++
	op.mu.Unlock()
	ok, _ := b.submit(bfr, bc, nil)
	if bfr != op.frame {
		bfr.unref()
	}
	if !ok {
		op.mu.Lock()
		op.outstanding--
		op.mu.Unlock()
		putCall(bc)
		op.release() // the call's ref
	}
	op.release() // the timer's ref
}

// backendDone is the continuation a lane receiver runs when one of this
// op's backend calls settles. 0, 1, or 2 of the op's calls may still be
// in flight at any moment; the first success answers the client, and a
// failure falls over only once no sibling is still racing.
func (op *getOp) backendDone(bc *call) {
	op.mu.Lock()
	op.outstanding--
	if op.finished {
		op.mu.Unlock()
		putCall(bc)
		op.release()
		return
	}
	if bc.err == nil && !isShedStatus(bc.resp) {
		op.finished = true
		if bc.isHedge {
			op.p.hedgeWins.Add(1)
		}
		if op.outstanding > 0 {
			// The losing sibling's lane claim is released by its own
			// completion; count it as a cancelled hedge.
			op.p.hedgesCancelled.Add(1)
		}
		op.disarmLocked()
		op.mu.Unlock()
		transfer(bc, op.ca)
		op.release()
		return
	}
	if bc.err != nil {
		// Demote before any ack the failover may produce: a replica
		// that failed must not serve the next read.
		bc.srcB.suspect()
	} else {
		op.p.shedObserved.Add(1)
		op.lastShed = bc.resp[0]
	}
	putCall(bc)
	if op.outstanding > 0 {
		op.mu.Unlock()
		op.release()
		return
	}
	op.disarmLocked()
	if !op.retried {
		op.retried = true
		op.p.readRetries.Add(1)
	}
	op.mu.Unlock()
	op.failover()
	op.release()
}

// failover walks the remaining candidates sequentially: submit to the
// next one and return — its completion re-enters backendDone. Dead
// backends are demoted and skipped; a full lane (no room without
// blocking, which a continuation must never do) reads as proxy-side
// overload; an exhausted budget refuses the op with the not-executed
// contract intact.
func (op *getOp) failover() {
	for {
		op.mu.Lock()
		if op.finished {
			op.mu.Unlock()
			return
		}
		if op.next >= op.ncand {
			op.mu.Unlock()
			op.giveUp()
			return
		}
		b := op.cands[op.next]
		op.next++
		op.mu.Unlock()

		bfr := op.frameFor(b)
		if bfr == nil {
			op.p.deadlineRejects.Add(1)
			op.mu.Lock()
			op.lastShed = kvstore.StatusDeadlineExceeded
			op.mu.Unlock()
			op.giveUp()
			return
		}
		bc := op.newCall(b, false)
		op.mu.Lock()
		op.outstanding++
		op.mu.Unlock()
		ok, full := b.submit(bfr, bc, nil)
		if bfr != op.frame {
			bfr.unref()
		}
		if ok {
			return
		}
		op.mu.Lock()
		op.outstanding--
		if full {
			op.lastShed = kvstore.StatusOverloaded
		}
		op.mu.Unlock()
		putCall(bc)
		op.release()
		if !full {
			b.suspect()
		}
	}
}

// giveUp answers the client after every candidate was exhausted: the
// last refusal status passes through (shed semantics preserved), or the
// read fails outright.
func (op *getOp) giveUp() {
	op.mu.Lock()
	if op.finished {
		op.mu.Unlock()
		return
	}
	op.finished = true
	shed := op.lastShed
	op.mu.Unlock()
	if shed != 0 {
		completeStatus(op.ca, shed)
		return
	}
	op.ca.fail(errNoReplica)
}

func (op *getOp) release() {
	if op.refs.Add(-1) == 0 {
		if op.frame != nil {
			op.frame.unref()
			op.frame = nil
		}
		for i := 0; i < op.ncand; i++ {
			op.cands[i] = nil
		}
		op.p, op.ca = nil, nil
		getOpPool.Put(op)
	}
}

// writeOp is the state machine behind a proxied PUT/DEL. All
// submissions happen on the starting goroutine under the key's stripe
// lock — the stripe covers lane submission only, so replicas execute
// same-key writes in one global order while completions settle
// lock-free. The last replica completion to arrive runs the
// settlement: demote the replicas that missed the write before the
// client can see the ack, then pick the winner.
type writeOp struct {
	p     *Proxy
	ca    *call
	frame *wireBuf
	op    uint8

	// outstanding counts in-flight replica calls plus one setup hold;
	// the decrement chain orders every completer's writes before the
	// settling goroutine's reads.
	outstanding atomic.Int32

	n       int
	calls   [2 * maxReplicas]*call
	backs   [2 * maxReplicas]*backend
	healthy [2 * maxReplicas]bool
	sheds   [2 * maxReplicas]bool
}

var writeOpPool = sync.Pool{New: func() any { return &writeOp{} }}

// minWriteBudget is the cheapest plausible proxy→replica round trip; a
// budgeted write with less than this remaining can never be acked in
// time, and unlike a read it cannot be refused downstream.
const minWriteBudget = 20 * time.Microsecond

// minHopCost floors the per-hop budget deduction for forwarded reads
// when the RTT estimator is still cold (it reads 0 before warm-up).
const minHopCost = 20 * time.Microsecond

// startWrite begins a proxied PUT/DEL on the client reader's goroutine;
// the replicas' lanes join ls, which the reader flushes before it parks.
//
// Budgets gate writes only *before* submission: an expired budget is
// refused here, with nothing on any wire, so StatusDeadlineExceeded
// keeps meaning "no replica executed this". The forwarded frame is
// unbudgeted — once a write is in flight to a replica set, a
// per-replica deadline expiry would mean divergence, exactly what the
// ack invariant forbids.
func (p *Proxy) startWrite(req []byte, key uint64, deadline time.Time, ca *call, ls *laneSet) {
	// A write whose remaining budget cannot cover even a loopback round
	// trip is dead on arrival; it must be refused *here* because the
	// forwarded frame carries no budget for a backend to notice. (The
	// old goroutine-per-op dispatch got this check for free — the spawn
	// latency alone outlived a degenerate budget. Inline dispatch runs
	// the check within nanoseconds of parsing, so it needs the floor.)
	if !deadline.IsZero() && time.Until(deadline) < minWriteBudget {
		p.deadlineRejects.Add(1)
		completeStatus(ca, kvstore.StatusDeadlineExceeded)
		return
	}
	op := writeOpPool.Get().(*writeOp)
	op.p, op.ca, op.op = p, ca, req[0]
	op.n = 0
	op.outstanding.Store(1) // setup hold: no settlement while still submitting

	fr := getWire()
	fr.b = kvstore.AppendFrame(fr.b, req)
	op.frame = fr

	var bbuf [2 * maxReplicas]*backend
	var hbuf [2 * maxReplicas]bool
	stripe := &p.locks[key&(stripeCount-1)]
	stripe.Lock()
	set, elig := p.writeSet(key, bbuf[:0], hbuf[:0])
	for i, b := range set {
		bc := getCall(op)
		bc.srcB = b
		n := op.n
		op.calls[n], op.backs[n], op.healthy[n] = bc, b, elig[i]
		op.sheds[n] = false
		op.n = n + 1
		op.outstanding.Add(1)
		if ok, _ := b.submit(fr, bc, ls); !ok {
			op.n = n
			op.calls[n] = nil
			op.outstanding.Add(-1) // cannot hit 0: setup hold outstanding
			putCall(bc)
			if elig[i] {
				b.suspect()
			}
		}
	}
	stripe.Unlock()
	if op.outstanding.Add(-1) == 0 { // release the setup hold
		op.settle()
	}
}

// backendDone is the continuation a lane receiver runs per replica
// completion; the results are read all at once by settle.
func (op *writeOp) backendDone(_ *call) {
	if op.outstanding.Add(-1) == 0 {
		op.settle()
	}
}

// settle runs exactly once, on whichever goroutine retired the op's
// last outstanding count. It is the PR-7 doWrite epilogue verbatim:
// demote failures and sheds before the ack, degrade if short of the
// full set, prefer a DEL answer that found the key, all-refused passes
// StatusOverloaded through with no demotions (the cluster-wide
// not-executed case).
func (op *writeOp) settle() {
	p := op.p
	n := op.n
	if n == 0 {
		op.ca.fail(errNoReplica)
		op.recycle()
		return
	}
	okCount, shedCount := 0, 0
	for i := 0; i < n; i++ {
		bc := op.calls[i]
		if bc.err != nil {
			// Demote before the client can see the ack: a replica that
			// missed this write must not serve the next read.
			if op.healthy[i] {
				op.backs[i].suspect()
			}
			putCall(bc)
			op.calls[i] = nil
			continue
		}
		if isShedStatus(bc.resp) {
			p.shedObserved.Add(1)
			op.sheds[i] = true
			shedCount++
			continue
		}
		okCount++
	}
	if okCount == 0 {
		for i := 0; i < n; i++ {
			if op.calls[i] != nil {
				putCall(op.calls[i])
				op.calls[i] = nil
			}
		}
		if shedCount > 0 {
			// Every live replica refused before executing: the write
			// happened nowhere, so nobody diverged and nobody is demoted.
			completeStatus(op.ca, kvstore.StatusOverloaded)
		} else {
			op.ca.fail(errNoReplica)
		}
		op.recycle()
		return
	}
	// At least one replica holds the write; a replica that shed it
	// missed it and must leave the read set before the ack, exactly
	// like a transport failure.
	for i := 0; i < n; i++ {
		if op.sheds[i] {
			if op.healthy[i] {
				op.backs[i].suspect()
			}
			putCall(op.calls[i])
			op.calls[i] = nil
		}
	}
	if okCount < n {
		p.degraded.Add(1)
	}
	var winner *call
	for i := 0; i < n; i++ {
		c := op.calls[i]
		if c == nil {
			continue
		}
		op.calls[i] = nil
		if winner == nil {
			winner = c
			continue
		}
		if op.op == kvstore.OpDel && winner.resp[0] != kvstore.StatusOK && c.resp[0] == kvstore.StatusOK {
			putCall(winner)
			winner = c
			continue
		}
		putCall(c)
	}
	transfer(winner, op.ca)
	op.recycle()
}

func (op *writeOp) recycle() {
	op.frame.unref()
	op.frame = nil
	for i := 0; i < op.n; i++ {
		op.backs[i] = nil
	}
	op.p, op.ca = nil, nil
	writeOpPool.Put(op)
}
