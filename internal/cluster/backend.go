package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// Backend lifecycle. A backend is write-eligible while Recovering or
// Healthy and read-eligible only while Healthy — the invariant the
// whole failover design rests on: a replica that may have missed a
// write (its connections died, or it just rejoined) never serves a
// read until the proxy has resynced it from a healthy peer.
const (
	stateConnecting int32 = iota // dialing; breaker open, no traffic
	stateRecovering              // connected; writes land, reads skip it until resync completes
	stateHealthy                 // full member
	stateStopped                 // removed from the topology
)

func stateName(s int32) string {
	switch s {
	case stateConnecting:
		return "connecting"
	case stateRecovering:
		return "recovering"
	case stateHealthy:
		return "healthy"
	default:
		return "stopped"
	}
}

var (
	errBackendDown = errors.New("cluster: backend down")
	errNoReplica   = errors.New("cluster: no live replica")
)

// call is one request in flight to a backend, or one client-facing
// response slot.
//
// A call settles one way: the completer — a lane receiver, a hedge
// timer, a failed submit, or the op that answers a client — invokes
// the owner's backendDone directly. The owner is a pooled op (getOp,
// writeOp or a scatter) for a backend call and the connection's burst
// for a client call, so no goroutine ever parks on one call.
//
// respBuf always holds a complete response *frame* (4-byte length
// prefix included) so the connection reader can forward it verbatim;
// resp is the payload view into it, status byte first.
type call struct {
	resp    []byte  // response payload, status byte first; aliases respBuf[4:]
	respBuf *[]byte // pooled framed backing storage, recycled by putCall
	err     error
	start   time.Time
	state   atomic.Int32

	// Continuation routing: cont is the owner, srcB the backend the
	// call was submitted to (for demotion on failure) and isHedge tags
	// the speculative copy of a hedged read.
	cont    interface{ backendDone(*call) }
	srcB    *backend
	isHedge bool
}

const (
	callLive    int32 = iota // completer has not delivered yet
	callSettled              // completer delivered
)

var callPool = sync.Pool{New: func() any { return &call{} }}

// getCall takes a call from the pool for the owner whose backendDone
// will settle it.
func getCall(owner interface{ backendDone(*call) }) *call {
	ca := callPool.Get().(*call)
	ca.cont = owner
	ca.resp, ca.err = nil, nil
	ca.start = time.Now()
	ca.state.Store(callLive)
	return ca
}

func putCall(ca *call) {
	if ca.respBuf != nil {
		putBuf(ca.respBuf)
		ca.respBuf = nil
	}
	ca.resp = nil
	ca.cont, ca.srcB = nil, nil
	ca.isHedge = false
	callPool.Put(ca)
}

// complete fulfils a call with a pooled framed response buffer
// (ownership transfers to the call), then runs its owner's
// continuation inline. The continuation is the last thing that happens
// here: it may recycle ca.
func (ca *call) complete(respBuf *[]byte) {
	if ca.state.CompareAndSwap(callLive, callSettled) {
		ca.respBuf = respBuf
		if respBuf != nil {
			ca.resp = (*respBuf)[4:]
		}
		ca.cont.backendDone(ca)
		return
	}
	if respBuf != nil {
		putBuf(respBuf)
	}
	putCall(ca)
}

func (ca *call) fail(err error) {
	if ca.state.CompareAndSwap(callLive, callSettled) {
		ca.err = err
		ca.cont.backendDone(ca)
		return
	}
	putCall(ca)
}

// bufPool recycles the proxy's response frames: a backend response is
// captured whole into one, forwarded to the client and returned once
// written. Buffers pass as *[]byte so Put never allocates a slice
// header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= 64<<10 {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

// wireBuf is a pooled, refcounted request frame (length prefix
// included). The builder holds one reference; every lane submission
// takes another, released once the frame has been written to the wire
// (or the lane died). A frame's bytes may be rewritten in place — the
// per-backend budget field — only while the owner holds the *sole*
// reference; a frame some lane still has queued is cloned instead.
type wireBuf struct {
	b    []byte
	refs atomic.Int32
}

var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 64)} }}

func getWire() *wireBuf {
	w := wirePool.Get().(*wireBuf)
	w.b = w.b[:0]
	w.refs.Store(1)
	return w
}

func (w *wireBuf) ref() { w.refs.Add(1) }

func (w *wireBuf) unref() {
	if w.refs.Add(-1) == 0 && cap(w.b) <= 64<<10 {
		wirePool.Put(w)
	}
}

// conn is a backend's lane: the one pipelined connection every request
// to that backend rides. Submissions append to the wire queue and to
// the pending FIFO under mu; the lane's one goroutine, recvLoop, pairs
// responses with pending calls in order. One lane per backend keeps the
// wire in the proxy's submission order, so every replica executes
// same-key writes in the proxy's stripe order.
//
// A lane has no writer of its own. A submitter that may block writes
// what it queued before it waits — a client reader before it parks on
// its burst, an admin round trip before it waits on its reply — so a
// burst's frames to one backend share one writev. A submitter that
// must not block (a hedge timer, a failover or other continuation on a
// lane receiver) writes at once.
type conn struct {
	b   *backend
	gen uint64
	cl  *kvstore.Client

	mu      sync.Mutex
	dead    bool
	pending chan *call

	// Outbound frame queue, drained by one writev. outW holds the
	// refcounts, outB the parallel byte views handed to net.Buffers;
	// scratch is the reusable copy WriteTo is allowed to consume.
	outW    []*wireBuf
	outB    [][]byte
	scratch [][]byte
}

// laneSet holds the lanes a submitter that may block has queued frames
// on and not yet written; flush writes them, and the submitter calls it
// before it waits. It is fixed-size so a client burst carries one with
// no allocation; a lane that finds it full is written at once.
type laneSet struct {
	n     int
	lanes [2 * maxReplicas]*conn
}

// add records c, reporting false if the set is full.
func (s *laneSet) add(c *conn) bool {
	if !slices.Contains(s.lanes[:s.n], c) {
		if s.n == len(s.lanes) {
			return false
		}
		s.lanes[s.n] = c
		s.n++
	}
	return true
}

// flush writes every lane in the set and empties it.
func (s *laneSet) flush() {
	for i, c := range s.lanes[:s.n] {
		c.mu.Lock()
		c.writeLocked()
		c.mu.Unlock()
		s.lanes[i] = nil
	}
	s.n = 0
}

// submit queues the frame fr for ca on this lane, taking its own
// reference on it; ok is false if the lane is dead. ls is the caller's
// set when it may block: the frame stays queued, ls records the lane,
// and the caller flushes ls before it waits. A nil ls marks a caller
// that must not block: the frame is written at once, and a lane at
// full depth is refused with full=true (alive, just no room).
func (c *conn) submit(fr *wireBuf, ca *call, ls *laneSet) (ok, full bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, false
	}
	if ls == nil && len(c.pending) == cap(c.pending) { // only the receiver takes from pending
		return false, true
	}
	fr.ref()
	c.outW = append(c.outW, fr)
	c.outB = append(c.outB, fr.b)
	select {
	case c.pending <- ca:
		if ls == nil || !ls.add(c) {
			c.writeLocked() // a failed write kills the lane; its receiver fails ca with the rest
		}
	default:
		// Full depth: write everything queued, then block. Once every
		// pending call is on the wire, the lane drains on the server's
		// replies alone.
		if !c.writeLocked() {
			return false, false // ca never reached pending; its caller fails it
		}
		c.pending <- ca // natural per-lane backpressure
	}
	c.b.inflight.Add(1)
	return true, false
}

// writeLocked writevs every queued frame in one syscall; mu held. A
// failed write kills the lane and reports false; a dead lane has
// nothing queued. The queue is copied into scratch first —
// net.Buffers.WriteTo consumes the slice it is given — and the frame
// references are released only after the write, which is what gates
// in-place budget rewrites: a frame with any outstanding lane
// reference is still (about to be) on some wire and must be cloned,
// not rewritten.
func (c *conn) writeLocked() bool {
	if len(c.outB) == 0 {
		return true
	}
	c.b.laneWrites.Add(1)
	c.b.laneFrames.Add(int64(len(c.outB)))
	c.scratch = append(c.scratch[:0], c.outB...)
	bufs := net.Buffers(c.scratch)
	err := c.cl.WriteFrames(&bufs)
	for i := range c.scratch {
		c.scratch[i] = nil
	}
	c.releaseOutLocked()
	if err != nil {
		c.killLocked()
	}
	return err == nil
}

func (c *conn) releaseOutLocked() {
	for i, w := range c.outW {
		w.unref()
		c.outW[i] = nil
		c.outB[i] = nil
	}
	c.outW = c.outW[:0]
	c.outB = c.outB[:0]
}

// killLocked marks the lane dead and closes the socket; mu held. The
// pending channel is closed here — submitters check dead under mu
// first, so no send can race the close.
func (c *conn) killLocked() {
	if c.dead {
		return
	}
	c.dead = true
	c.cl.Close()
	c.releaseOutLocked()
	close(c.pending)
	c.b.noteDeath(c.gen)
}

func (c *conn) kill() {
	c.mu.Lock()
	c.killLocked()
	c.mu.Unlock()
}

// recvLoop pairs responses with pending calls, capturing each response
// as a whole frame (prefix included) so the connection reader can
// forward it without re-encoding. Completing a call runs its op
// continuation inline on this goroutine — the hot path's only
// goroutines are the lane receivers that already exist. On a read
// error it fails the current call, keeps draining (subsequent reads
// fail instantly on the closed socket), and exits when kill closes the
// channel.
func (c *conn) recvLoop() {
	var sampled uint64
	for ca := range c.pending {
		buf := getBuf()
		p, err := c.cl.RecvFrame((*buf)[:0])
		if err != nil {
			putBuf(buf)
			c.b.inflight.Add(-1)
			ca.fail(err)
			// Kill from a fresh goroutine: kill takes mu, and a
			// submitter blocked on the full pending channel holds mu
			// until this loop consumes its call.
			go c.kill()
			continue
		}
		*buf = p
		if sampled++; sampled&15 == 0 {
			c.b.observeRTT(time.Since(ca.start))
		}
		c.b.inflight.Add(-1)
		ca.complete(buf)
	}
}

// backend is one kvserver behind the proxy: its pipelined lane,
// a circuit breaker (the monitor goroutine), and the latency digest
// that derives the hedged-read delay.
type backend struct {
	addr string
	p    *Proxy

	state    atomic.Int32
	gen      atomic.Uint64 // bumped per (re)connect; stale lane deaths are ignored
	lane     atomic.Pointer[conn]
	inflight atomic.Int64

	// Lane batching: writev syscalls and the frames they carried.
	laneWrites atomic.Int64
	laneFrames atomic.Int64

	scheme atomic.Pointer[string] // reclamation scheme reported by the backend's STATS

	rtt       *obs.Hist
	rttN      atomic.Uint64
	rttP50Ns  atomic.Int64 // cached p50, deducted from forwarded budgets
	hedgeNs   atomic.Int64
	trips     atomic.Uint64 // breaker openings
	dialErrs  atomic.Int64  // consecutive dial failures while reconnecting
	syncMoved atomic.Uint64 // keys copied in by the last resync

	deaths chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	// testSubmit, when set, intercepts every lane submission — the seam
	// the allocation guard uses to complete calls synchronously without
	// sockets or servers (testing.AllocsPerRun measures process-global
	// allocations, so the real transport would drown the signal).
	testSubmit func(fr *wireBuf, ca *call) bool
}

func newBackend(p *Proxy, addr string, hist *obs.Hist) *backend {
	if hist == nil {
		hist = &obs.Hist{}
	}
	b := &backend{
		addr:   addr,
		p:      p,
		rtt:    hist,
		deaths: make(chan struct{}, 4),
		stop:   make(chan struct{}),
	}
	empty := ""
	b.scheme.Store(&empty)
	b.state.Store(stateConnecting)
	return b
}

func (b *backend) start(bootstrap bool) {
	b.wg.Add(1)
	go b.run(bootstrap)
}

func (b *backend) stopAndWait() {
	b.state.Store(stateStopped)
	close(b.stop)
	b.wg.Wait()
}

// noteDeath tells the monitor the lane of the current generation died.
func (b *backend) noteDeath(gen uint64) {
	if b.gen.Load() != gen {
		return // a lane from a torn-down generation failing late
	}
	select {
	case b.deaths <- struct{}{}:
	default:
	}
}

// suspect flips a backend out of the read set the moment a write to it
// fails, *before* the proxy acks that write — the ordering that makes
// "acked ⇒ every read-eligible replica has it" hold even in the window
// before the monitor processes the lane death.
func (b *backend) suspect() {
	if b.state.CompareAndSwap(stateHealthy, stateConnecting) {
		b.trips.Add(1)
		b.noteDeath(b.gen.Load())
	}
}

// run is the breaker/monitor loop: dial the lane, resync if this is a
// rejoin, serve until the lane dies, tear down, repeat with jittered
// backoff. Exits when the backend is removed from the topology.
func (b *backend) run(bootstrap bool) {
	defer b.wg.Done()
	first := true
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-b.stop:
			return
		default:
		}
		gen := b.gen.Add(1)
		lane, err := b.connect(gen)
		if err != nil {
			b.dialErrs.Add(1)
			wait := time.Duration(float64(backoff) * (0.75 + 0.5*rand.Float64()))
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			select {
			case <-b.stop:
				return
			case <-time.After(wait):
			}
			continue
		}
		backoff = 50 * time.Millisecond
		b.dialErrs.Store(0)
		b.lane.Store(lane)
		if first && bootstrap {
			// Initial topology: every backend starts empty and
			// consistent; there is nothing to copy and no healthy peer
			// to copy it from yet.
			b.state.Store(stateHealthy)
		} else {
			b.state.Store(stateRecovering)
			if err := b.p.resync(b); err != nil {
				b.teardown(lane)
				continue
			}
			b.state.CompareAndSwap(stateRecovering, stateHealthy)
		}
		first = false
		select {
		case <-b.stop:
			b.teardown(lane)
			return
		case <-b.deaths:
			b.trips.Add(1)
			b.state.Store(stateConnecting)
			b.teardown(lane)
		}
	}
}

func (b *backend) connect(gen uint64) (*conn, error) {
	cfg := b.p.cfg
	cl, err := kvstore.Dial(b.addr,
		kvstore.WithDialTimeout(cfg.DialTimeout),
		kvstore.WithReadTimeout(cfg.IOTimeout),
		kvstore.WithPipelineDepth(cfg.Depth),
		kvstore.WithRetries(2),
		kvstore.WithRetryBackoff(25*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}
	// One round trip before the lane goes live: STATS records the
	// reclamation scheme.
	st, err := cl.Stats(context.Background())
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("cluster: %s STATS: %w", b.addr, err)
	}
	b.scheme.Store(&st.Scheme)
	c := &conn{b: b, gen: gen, cl: cl, pending: make(chan *call, cfg.Depth)}
	go c.recvLoop()
	return c, nil
}

func (b *backend) teardown(c *conn) {
	b.lane.Store(nil)
	c.kill()
	// Clear death signals raised by the lane just torn down so the next
	// one does not get recycled on arrival (a fresh lane's death
	// re-raises: its generation is current).
	for {
		select {
		case <-b.deaths:
		default:
			return
		}
	}
}

// submit queues an op on the backend's lane; see conn.submit for ls
// and full.
func (b *backend) submit(fr *wireBuf, ca *call, ls *laneSet) (ok, full bool) {
	if b.testSubmit != nil {
		return b.testSubmit(fr, ca), false
	}
	c := b.lane.Load()
	if c == nil {
		return false, false
	}
	return c.submit(fr, ca, ls)
}

// roundTrip is the blocking helper rebalancing's single-key reads,
// copies and deletes use: a one-leg scatterWait whose reply payload,
// status byte first, is appended to dst.
func (b *backend) roundTrip(req, dst []byte) ([]byte, error) {
	var err error
	scatterWait([]*backend{b}, req, func(legs []*call) {
		if err = legs[0].err; err == nil {
			dst = append(dst, legs[0].resp...)
		}
	})
	return dst, err
}

// scatterWait is scatter for a caller that may block (an admin or
// rebalance goroutine): it writes the lanes it queued on, then waits
// until done has run.
func scatterWait(sources []*backend, req []byte, done func(legs []*call)) {
	settled := make(chan struct{}, 1)
	var ls laneSet
	scatter(sources, req, &ls, func(legs []*call) {
		done(legs)
		settled <- struct{}{}
	})
	ls.flush()
	<-settled
}

// fanOut is one scatter in flight: a leg per source plus a setup hold,
// settled by whichever goroutine retires the last count.
type fanOut struct {
	legs        []*call
	outstanding atomic.Int32
	done        func(legs []*call)
}

// scatter submits req to every source as one pooled continuation call
// each, then runs done(legs) once every leg has settled — on the
// goroutine that settled the last one, a lane receiver unless a submit
// failed — so done must never block. legs[i] answers sources[i] (err
// set if it failed) and returns to the pool when done returns. The
// submissions may block at full lane depth, like any reader-side
// submit, and leave their lanes in ls for the caller to flush before
// it waits.
func scatter(sources []*backend, req []byte, ls *laneSet, done func(legs []*call)) {
	f := &fanOut{legs: make([]*call, len(sources)), done: done}
	f.outstanding.Store(int32(len(sources)) + 1) // setup hold: no settlement while still submitting
	fr := getWire()
	fr.b = kvstore.AppendFrame(fr.b, req)
	for i, b := range sources {
		lc := getCall(f)
		f.legs[i] = lc
		if ok, _ := b.submit(fr, lc, ls); !ok {
			lc.fail(errBackendDown)
		}
	}
	fr.unref()
	f.backendDone(nil) // release the setup hold
}

func (f *fanOut) backendDone(*call) {
	if f.outstanding.Add(-1) == 0 {
		f.done(f.legs)
		for _, lc := range f.legs {
			putCall(lc)
		}
	}
}

// Hedge-delay bookkeeping: re-derive the hedged read trigger as 2×p99,
// clamped to [250µs, 25ms]. Steady state re-derives every 512 sampled
// RTTs, but each of the first rttWarmup samples re-derives immediately —
// a freshly added or rejoined backend used to hedge on the 1ms default
// for its whole first 512-sample window, firing wild hedges on slow
// links and never firing on fast ones.
const (
	hedgeMin  = 250 * time.Microsecond
	hedgeMax  = 25 * time.Millisecond
	rttWarmup = 16
)

func (b *backend) observeRTT(d time.Duration) {
	b.rtt.Observe(uint64(d))
	if n := b.rttN.Add(1); n <= rttWarmup || n&511 == 0 {
		sum := b.rtt.Summary()
		b.rttP50Ns.Store(int64(sum.P50Us * 1e3))
		p99 := time.Duration(sum.P99Us * 1e3)
		h := 2 * p99
		if h < hedgeMin {
			h = hedgeMin
		}
		if h > hedgeMax {
			h = hedgeMax
		}
		b.hedgeNs.Store(int64(h))
	}
}

// netRTT is the running p50 round-trip estimate; the proxy deducts it
// from budgets forwarded to this backend so the server-side deadline
// accounts for the return hop.
func (b *backend) netRTT() time.Duration { return time.Duration(b.rttP50Ns.Load()) }

// hedgeDelay is how long a Get waits on the first replica before firing
// the hedge at the second.
func (b *backend) hedgeDelay() time.Duration {
	if ns := b.hedgeNs.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return time.Millisecond
}

func (b *backend) readEligible() bool { return b.state.Load() == stateHealthy }
func (b *backend) writeEligible() bool {
	s := b.state.Load()
	return s == stateHealthy || s == stateRecovering
}
