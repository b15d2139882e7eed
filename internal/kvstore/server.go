package kvstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server serves the wire protocol over TCP. Each accepted connection
// checks a tid out of a fixed pool for its lifetime — the tid is what
// the reclamation layer keys its per-thread state on, so connections
// map one-to-one onto reclamation threads. A connection gets the lowest
// free tid, so connection churn keeps reusing the same few tids and the
// OrcGC retire scans, which stop at the highest tid that ever published,
// stay short. One goroutine per connection reads, executes and answers
// its requests serially (per-connection order is the protocol
// contract), flushing its responses once per burst.
type Server struct {
	st *Store
	ln net.Listener

	tids chan struct{} // one token per tid in 1..MaxThreads-1; tid 0 belongs to New/drain

	adm admission

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	out    []*bufio.Writer // by tid, set under mu: the holding connection's response writer (nil = tid free), found by serveOne to flush before a wait
	closed bool

	m *srvMetrics // nil unless Instrument was called

	wg sync.WaitGroup
}

// admission bounds concurrent data-op execution. slots holds one token
// per free inflight slot (nil = unlimited); an op that cannot get a
// token immediately either queues (bounded by queueCap waiters) or is
// shed with StatusOverloaded on the spot — saturation degrades to
// fast-fail, not latency collapse. Budgeted ops re-check their deadline
// after the queue wait, so a slot is never spent executing work whose
// caller has already given up (the OrcGC robustness argument over the
// wire: bounding dead work bounds the retire backlog).
type admission struct {
	slots    chan struct{}
	limit    int
	queueCap int64
	waiters  atomic.Int64
	shed     atomic.Uint64
	expired  atomic.Uint64
}

func (a *admission) init(limit, queue int) {
	if limit <= 0 {
		return
	}
	if queue <= 0 {
		queue = 2 * limit
	}
	a.limit = limit
	a.queueCap = int64(queue)
	a.slots = make(chan struct{}, limit)
	for i := 0; i < limit; i++ {
		a.slots <- struct{}{}
	}
}

// acquire takes an inflight slot, waiting until deadline (zero = wait
// forever) while the waiter bound allows. Returns StatusOK holding a
// slot, or the shed status to answer with — in which case no slot is
// held and the op must not execute. Before it parks it flushes out (if
// non-nil), so responses already encoded never wait on the queue; a
// failed flush stays on out, and the connection loop acts on it.
func (a *admission) acquire(deadline time.Time, out *bufio.Writer) uint8 {
	select {
	case <-a.slots:
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			a.release()
			a.expired.Add(1)
			return StatusDeadlineExceeded
		}
		return StatusOK
	default:
	}
	if a.waiters.Add(1) > a.queueCap {
		a.waiters.Add(-1)
		a.shed.Add(1)
		return StatusOverloaded
	}
	defer a.waiters.Add(-1)
	if out != nil {
		out.Flush()
	}
	if deadline.IsZero() {
		<-a.slots
		return StatusOK
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-a.slots:
		return StatusOK
	case <-timer.C:
		a.expired.Add(1)
		return StatusDeadlineExceeded
	}
}

func (a *admission) release() { a.slots <- struct{}{} }

// AdmissionStats is the admission-control ledger: configured bounds and
// the running shed counters. Shed counts ops refused with
// StatusOverloaded; DeadlineExceeded counts ops refused with
// StatusDeadlineExceeded. Both count refusals that provably did not
// execute.
type AdmissionStats struct {
	InflightLimit    int    `json:"inflight_limit"`
	QueueLimit       int    `json:"queue_limit"`
	Shed             uint64 `json:"shed_total"`
	DeadlineExceeded uint64 `json:"deadline_exceeded_total"`
}

// AdmissionStats snapshots the admission ledger.
func (s *Server) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		InflightLimit:    s.adm.limit,
		QueueLimit:       int(s.adm.queueCap),
		Shed:             s.adm.shed.Load(),
		DeadlineExceeded: s.adm.expired.Load(),
	}
}

// srvMetrics is the optional request-path instrumentation: one striped
// counter and one sampled latency histogram per op kind, keyed by the
// connection's tid so concurrent handlers never contend on a stripe.
type srvMetrics struct {
	ops [opMax]*obs.Counter
	lat [opMax]*obs.Hist
}

const opMax = OpDrain + 1

func opName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpScan:
		return "scan"
	case OpStats:
		return "stats"
	case OpDrain:
		return "drain"
	default:
		return "other"
	}
}

// latSampleMask selects which requests get timed: 1 in 64, cheap enough
// to leave on in production scrapes.
const latSampleMask = 63

// ServerOption tunes a Server at construction.
type ServerOption func(*serverConfig)

type serverConfig struct {
	maxInflight int
	maxQueue    int
}

// WithMaxInflight bounds how many data ops (GET/PUT/DEL/SCAN) may
// execute concurrently; excess arrivals queue up to the WithMaxQueue
// bound and are shed with StatusOverloaded past it. 0 (the default)
// leaves admission unlimited. Control ops (STATS/DRAIN) bypass
// admission — an operator must be able to inspect a saturated server.
func WithMaxInflight(n int) ServerOption {
	return func(c *serverConfig) { c.maxInflight = n }
}

// WithMaxQueue bounds how many data ops may wait for an inflight slot
// before new arrivals are shed (default 2× the inflight bound).
func WithMaxQueue(n int) ServerOption {
	return func(c *serverConfig) { c.maxQueue = n }
}

// NewServer wraps st; the caller keeps ownership of st (for
// DrainAndCheck after Shutdown).
func NewServer(st *Store, opts ...ServerOption) *Server {
	var sc serverConfig
	for _, o := range opts {
		o(&sc)
	}
	s := &Server{
		st:    st,
		tids:  make(chan struct{}, st.MaxThreads()-1),
		conns: make(map[net.Conn]struct{}),
		out:   make([]*bufio.Writer, st.MaxThreads()),
	}
	s.adm.init(sc.maxInflight, sc.maxQueue)
	for t := 1; t < st.MaxThreads(); t++ {
		s.tids <- struct{}{}
	}
	return s
}

// Instrument registers the server's request metrics with reg: per-op
// throughput counters ("kv/server/ops/get"), 1-in-64-sampled per-op
// latency histograms ("kv/server/lat/get_ns"), and a gauge of active
// connections. Call before Serve.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &srvMetrics{}
	for op := byte(OpGet); op < opMax; op++ {
		m.ops[op] = reg.Counter("kv/server/ops/" + opName(op))
		m.lat[op] = reg.Hist("kv/server/lat/" + opName(op) + "_ns")
	}
	s.m = m
	reg.GaugeFunc("kv/server/conns", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	reg.GaugeFunc("kv/server/shed_total", func() int64 {
		return int64(s.adm.shed.Load())
	})
	reg.GaugeFunc("kv/server/deadline_exceeded_total", func() int64 {
		return int64(s.adm.expired.Load())
	})
	reg.GaugeFunc("kv/server/inflight_limit", func() int64 {
		return int64(s.adm.limit)
	})
	reg.GaugeFunc("kv/server/inflight", func() int64 {
		if s.adm.slots == nil {
			return 0
		}
		return int64(s.adm.limit - len(s.adm.slots))
	})
	reg.GaugeFunc("kv/server/queue_waiters", func() int64 {
		return s.adm.waiters.Load()
	})
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// once the accept loop exits; Shutdown waits for the connections.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("kvstore: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		select {
		case <-s.tids:
			tid, ok := s.track(c)
			if !ok {
				s.tids <- struct{}{}
				c.Close()
				return nil
			}
			s.wg.Add(1)
			go s.handle(c, tid)
		default:
			// Tid pool exhausted: every reclamation thread slot is in
			// use. Refuse rather than queue — the client sees EOF.
			c.Close()
		}
	}
}

// track registers c and hands it the lowest free tid, with a response
// writer on c. The caller holds a tid token, so one is free.
func (s *Server) track(c net.Conn) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false
	}
	tid := 1
	for s.out[tid] != nil {
		tid++
	}
	s.out[tid] = bufio.NewWriterSize(c, 64<<10)
	s.conns[c] = struct{}{}
	return tid, true
}

func (s *Server) untrack(c net.Conn, tid int) {
	s.mu.Lock()
	delete(s.conns, c)
	s.out[tid] = nil
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting, half-close every
// connection's read side so in-flight pipelines finish and their
// responses flush, then wait for all handlers to exit.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			c.Close()
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// handle runs one connection on one goroutine: it executes each request
// inline with the connection's tid, encodes the response into one reused
// buffer and writes it to the tid's bufio.Writer. It flushes only when
// the next frame is not already buffered (the burst is over), before a
// wait that is not execution (an admission park, DRAIN's tid claim),
// and on exit.
func (s *Server) handle(c net.Conn, tid int) {
	defer s.wg.Done()
	defer func() { s.tids <- struct{}{} }()
	defer s.untrack(c, tid)
	defer c.Close()

	br := bufio.NewReaderSize(c, 64<<10)
	bw := s.out[tid]
	defer bw.Flush()
	var req, resp []byte
	m := s.m
	for nops := uint64(0); ; nops++ {
		if !FrameBuffered(br) && bw.Flush() != nil {
			return // the client cannot receive; stop executing for it
		}
		payload, err := ReadFrame(br, req)
		if err != nil {
			return // EOF, half-close, or framing error
		}
		req = payload
		op := payload[0] &^ OpFlagBudget
		var t0 time.Time
		if m != nil && op < opMax {
			m.ops[op].Inc(tid)
			if nops&latSampleMask == 0 {
				t0 = time.Now()
			}
		}
		resp = s.serveOne(tid, resp[:0], payload)
		if !t0.IsZero() {
			m.lat[op].Observe(uint64(time.Since(t0)))
		}
		bw.Write(resp)
	}
}

// serveOne answers one request payload, encoding the response frame
// into dst. A budget prefix becomes a local deadline at parse time;
// transit and admission-queue time burn it, execution is gated on it.
// Only data ops (GET/PUT/DEL/SCAN) are gated — deadline check, then
// admission control; control ops pass straight through. Every rejection
// happens *before* the store is touched, so a StatusDeadlineExceeded or
// StatusOverloaded response is a proof the op had no effect.
func (s *Server) serveOne(tid int, dst, payload []byte) []byte {
	req, budget, ok := SplitBudget(payload)
	if !ok {
		out, fs := BeginFrame(dst)
		return ErrFrame(out, fs, "malformed budget prefix")
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	if op := req[0]; op >= OpGet && op <= OpScan {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			s.adm.expired.Add(1)
			return StatusFrame(dst, StatusDeadlineExceeded)
		}
		if s.adm.slots != nil {
			if st := s.adm.acquire(deadline, s.out[tid]); st != StatusOK {
				return StatusFrame(dst, st)
			}
			defer s.adm.release()
		}
	}
	return s.execute(tid, dst, req)
}

// execute runs one request, encoding the response frame directly into
// dst (the connection's reused response buffer), and returns the grown
// slice.
func (s *Server) execute(tid int, dst, req []byte) []byte {
	out, fs := BeginFrame(dst)
	op := req[0]
	switch op {
	case OpGet:
		key, ok := getU64(req, 1)
		if !ok {
			return ErrFrame(out, fs, "short GET")
		}
		v, found, err := s.st.Get(tid, key)
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		if !found {
			return EndFrame(append(out, StatusNotFound), fs)
		}
		out = append(out, StatusOK)
		out = appendU64(out, v)
		return EndFrame(out, fs)
	case OpPut:
		key, ok1 := getU64(req, 1)
		val, ok2 := getU64(req, 9)
		if !ok1 || !ok2 {
			return ErrFrame(out, fs, "short PUT")
		}
		ins, err := s.st.Put(tid, key, val)
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		b := uint8(0)
		if ins {
			b = 1
		}
		return EndFrame(append(out, StatusOK, b), fs)
	case OpDel:
		key, ok := getU64(req, 1)
		if !ok {
			return ErrFrame(out, fs, "short DEL")
		}
		found, err := s.st.Del(tid, key)
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		if !found {
			return EndFrame(append(out, StatusNotFound), fs)
		}
		return EndFrame(append(out, StatusOK), fs)
	case OpScan:
		from, ok1 := getU64(req, 1)
		limit, ok2 := getU32(req, 9)
		if !ok1 || !ok2 {
			return ErrFrame(out, fs, "short SCAN")
		}
		if limit > MaxScanLimit {
			limit = MaxScanLimit
		}
		pairs, err := s.st.Scan(tid, from, int(limit))
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		out = append(out, StatusOK)
		out = appendU32(out, uint32(len(pairs)/2))
		for _, w := range pairs {
			out = appendU64(out, w)
		}
		return EndFrame(out, fs)
	case OpStats:
		js, err := json.Marshal(s.st.Stats())
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		out = append(out, StatusOK)
		return EndFrame(append(out, js...), fs)
	case OpDrain:
		// Quiescent barrier: DrainAndCheck walks every tid's protection
		// slots (plain owner-mirrors, not atomics), so every other
		// connection must be gone first. Claiming every tid token
		// does both jobs at once: each receive is the happens-before
		// edge with the handler that returned that token (or with the
		// pool seeding, for never-used ones), and an empty pool makes
		// Serve refuse connections that arrive mid-drain. A client that
		// keeps its connection open makes this time out rather than
		// race. The claim may wait, so the burst so far goes out first.
		if bw := s.out[tid]; bw != nil {
			bw.Flush()
		}
		claimed := 0
		timeout := time.After(30 * time.Second)
		giveBack := func() {
			for ; claimed > 0; claimed-- {
				s.tids <- struct{}{}
			}
		}
		for claimed < cap(s.tids)-1 {
			select {
			case <-s.tids:
				claimed++
			case <-timeout:
				giveBack()
				return ErrFrame(out, fs, "drain: store busy (another connection still holds a reclamation tid)")
			}
		}
		js, err := json.Marshal(s.st.DrainAndCheck(tid))
		giveBack()
		if err != nil {
			return ErrFrame(out, fs, err.Error())
		}
		out = append(out, StatusOK)
		return EndFrame(append(out, js...), fs)
	default:
		return ErrFrame(out, fs, fmt.Sprintf("unknown op %d", op))
	}
}

// ListenAndServe is the cmd/kvserver entry point: listen on addr and
// serve until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}
