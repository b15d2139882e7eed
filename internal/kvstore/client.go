package kvstore

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrDeadlineExceeded and ErrOverloaded are the client-side faces of
// the two shed statuses. Both carry the server's contract that the
// op was refused *before* execution — a Put answered with either
// provably had no effect.
var (
	ErrDeadlineExceeded = errors.New("kvstore: deadline exceeded before execution")
	ErrOverloaded       = errors.New("kvstore: server overloaded, op shed")
)

// Client speaks the wire protocol over one connection. It supports
// pipelining through the split Send*/Recv* halves: issue any number of
// Send* calls, Flush, then Recv* once per outstanding request, in
// order. The single-sender/single-receiver contract: at most one
// goroutine may call Send*/Flush and at most one may call Recv* at a
// time (they may be different goroutines).
//
// The blocking helpers (Get/Put/Del/Scan/Stats/Drain/Cluster*) each do
// a full round trip and must not be mixed with outstanding pipelined
// requests — but they MAY be called from any number of goroutines
// concurrently with each other: a ticket queue (see startOp) serializes
// them in send order, and a cancelled ctx aborts only its own op's wait,
// never a neighbour's.
type Client struct {
	c    net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	opts Options

	wbuf []byte
	rbuf []byte

	// Blocking-helper response FIFO. hmu guards send order, the ticket
	// list, and skips; consumed is touched only by the current head
	// reader, which is single-threaded by construction.
	hmu      sync.Mutex
	headT    *ticket
	tailT    *ticket
	skips    int // stale response frames owed before the next ticket enqueued
	consumed bool
}

// ticket is one blocking helper's place in the response FIFO. A ticket
// becomes the read-side owner when its ready channel closes; skip is
// how many stale frames (debt left by cancelled predecessors) it must
// discard before its own response. A ticket abandoned before reaching
// the head leaves its own frame as debt for the next live owner.
type ticket struct {
	skip      int
	ready     chan struct{}
	abandoned bool // guarded by Client.hmu
	next      *ticket
}

// Options configures a Client connection. The zero value reproduces the
// historical Dial behavior: no timeouts, no retries, 64 KiB buffers.
type Options struct {
	// DialTimeout bounds the TCP connect (0 = OS default).
	DialTimeout time.Duration
	// ReadTimeout bounds each response read; 0 disables. A pipelined
	// receiver under a stalled server fails with a timeout error
	// instead of hanging forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each Flush; 0 disables.
	WriteTimeout time.Duration
	// Pipeline is the expected number of in-flight requests; it sizes
	// the connection buffers (~32 bytes per queued frame, min 4 KiB,
	// default 64 KiB).
	Pipeline int
	// DialRetries is how many extra connect attempts to make after a
	// failure (0 = fail on the first error).
	DialRetries int
	// DialBackoff is the wait before the first retry, doubling per
	// attempt (default 50ms when DialRetries > 0).
	DialBackoff time.Duration
	// DialRetryBudget caps the total wall-clock spent across dial
	// attempts and backoffs; once spent, DialWith returns the last dial
	// error without waiting out the remaining retries (default 15s when
	// DialRetries > 0; negative disables the cap).
	DialRetryBudget time.Duration
}

func (o *Options) bufSize() int {
	if o.Pipeline <= 0 {
		return 64 << 10
	}
	n := o.Pipeline * 32
	if n < 4<<10 {
		n = 4 << 10
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

// Option adjusts one connection knob; pass any number to Dial. Each
// option corresponds to an Options field, so the set an operator tuned
// by struct literal translates one-for-one.
type Option func(*Options)

// WithDialTimeout bounds the TCP connect.
func WithDialTimeout(d time.Duration) Option {
	return func(o *Options) { o.DialTimeout = d }
}

// WithReadTimeout bounds each response read.
func WithReadTimeout(d time.Duration) Option {
	return func(o *Options) { o.ReadTimeout = d }
}

// WithWriteTimeout bounds each Flush.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *Options) { o.WriteTimeout = d }
}

// WithPipelineDepth sizes the connection buffers for n in-flight
// requests.
func WithPipelineDepth(n int) Option {
	return func(o *Options) { o.Pipeline = n }
}

// WithRetries grants n extra connect attempts after a dial failure.
func WithRetries(n int) Option {
	return func(o *Options) { o.DialRetries = n }
}

// WithRetryBackoff sets the wait before the first retry (doubling per
// attempt, ±25% jitter).
func WithRetryBackoff(d time.Duration) Option {
	return func(o *Options) { o.DialBackoff = d }
}

// WithRetryBudget caps the total wall-clock spent across dial attempts
// and backoffs; negative disables the cap.
func WithRetryBudget(d time.Duration) Option {
	return func(o *Options) { o.DialRetryBudget = d }
}

// maxDialBackoff caps the dial retry backoff doubling: a generous retry
// budget must stretch into more attempts, not exponentially longer (and
// eventually overflowing) sleeps.
const maxDialBackoff = 2 * time.Second

// nextBackoff doubles a backoff wait up to maxDialBackoff; the cap also
// catches sign overflow from pathological doubling counts.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d <= 0 || d > maxDialBackoff {
		d = maxDialBackoff
	}
	return d
}

// jitterBackoff spreads one backoff wait over [0.75d, 1.25d), picking
// the point by u ∈ [0, 1). Pooled clients all notice a dead backend at
// the same instant; without jitter their doubling schedules stay
// synchronized and the restarted process takes the whole herd's
// reconnect burst at once.
func jitterBackoff(d time.Duration, u float64) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*u))
}

// Dial connects to a kvstore server. With no options it reproduces the
// historical behavior: no timeouts, no retries, 64 KiB buffers. Failed
// attempts (under WithRetries) back off exponentially with ±25% jitter
// (see jitterBackoff), but the loop never sleeps after the attempt it
// already knows to be the last — exhausted retries (by count or by
// WithRetryBudget) return promptly with the last dial error wrapped
// (errors.Unwrap recovers the net error).
func Dial(addr string, options ...Option) (*Client, error) {
	var opts Options
	for _, opt := range options {
		opt(&opts)
	}
	backoff := opts.DialBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	budget := opts.DialRetryBudget
	if budget == 0 {
		budget = 15 * time.Second
	}
	start := time.Now()
	var c net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		c, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			break
		}
		if attempt >= opts.DialRetries {
			if attempt == 0 {
				return nil, err // plain first-attempt failure, nothing retried
			}
			return nil, fmt.Errorf("kvstore: dial %s: %d attempts over %v: %w",
				addr, attempt+1, time.Since(start).Round(time.Millisecond), err)
		}
		// The next attempt only runs after the backoff; if that would
		// blow the retry budget, this failure is final — return now
		// rather than sleeping through a wait whose attempt we would
		// not make. The budget check uses the jittered wait actually
		// about to be slept.
		wait := jitterBackoff(backoff, rand.Float64())
		if budget > 0 && time.Since(start)+wait > budget {
			return nil, fmt.Errorf("kvstore: dial %s: retry budget %v exhausted after %d attempts: %w",
				addr, budget, attempt+1, err)
		}
		time.Sleep(wait)
		backoff = nextBackoff(backoff)
	}
	size := opts.bufSize()
	// The read buffer must hold a full frame so aborted reads can use
	// Peek/Discard without ever consuming a partial frame.
	rsize := size
	if rsize < MaxFrame+4 {
		rsize = MaxFrame + 4
	}
	return &Client{
		c:    c,
		bw:   bufio.NewWriterSize(c, size),
		br:   bufio.NewReaderSize(c, rsize),
		opts: opts,
	}, nil
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// CloseWrite half-closes the sending side, telling the server the
// pipeline is complete; queued responses still arrive.
func (cl *Client) CloseWrite() error {
	cl.Flush()
	if tc, ok := cl.c.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return nil
}

// header starts one request frame in cl.wbuf: the length prefix, then
// the op byte, budget-flagged with its µs field when budget > 0. The
// caller appends the op's fields and hands the frame to queue.
func (cl *Client) header(op uint8, budget time.Duration) []byte {
	b, _ := BeginFrame(cl.wbuf[:0])
	if budget > 0 {
		return AppendBudget(b, op, budget)
	}
	return append(b, op)
}

// queue back-fills the frame's length prefix and buffers it for Flush.
func (cl *Client) queue(b []byte) {
	cl.wbuf = EndFrame(b, 4)
	cl.bw.Write(cl.wbuf)
}

// SendGet queues a GET.
func (cl *Client) SendGet(key uint64) { cl.SendGetBudget(key, 0) }

// SendPut queues a PUT.
func (cl *Client) SendPut(key, val uint64) { cl.SendPutBudget(key, val, 0) }

// SendDel queues a DEL.
func (cl *Client) SendDel(key uint64) { cl.SendDelBudget(key, 0) }

// SendScan queues a SCAN.
func (cl *Client) SendScan(from uint64, limit uint32) { cl.SendScanBudget(from, limit, 0) }

// SendGetBudget queues a GET carrying an execution budget; a budget ≤ 0
// sends a plain GET.
func (cl *Client) SendGetBudget(key uint64, budget time.Duration) {
	cl.queue(appendU64(cl.header(OpGet, budget), key))
}

// SendPutBudget queues a PUT carrying an execution budget.
func (cl *Client) SendPutBudget(key, val uint64, budget time.Duration) {
	cl.queue(appendU64(appendU64(cl.header(OpPut, budget), key), val))
}

// SendDelBudget queues a DEL carrying an execution budget.
func (cl *Client) SendDelBudget(key uint64, budget time.Duration) {
	cl.queue(appendU64(cl.header(OpDel, budget), key))
}

// SendScanBudget queues a SCAN carrying an execution budget.
func (cl *Client) SendScanBudget(from uint64, limit uint32, budget time.Duration) {
	cl.queue(appendU32(appendU64(cl.header(OpScan, budget), from), limit))
}

// SendStats queues a STATS.
func (cl *Client) SendStats() { cl.queue(cl.header(OpStats, 0)) }

// RecvFrame reads one response frame and appends it *whole* — 4-byte
// length prefix included — to dst, returning the extended slice. This
// is the forwarding-proxy receive path: the captured frame can be
// written verbatim to another connection with no re-framing, copied
// straight out of the read buffer. The read deadline is armed only when
// the frame is not already buffered: a frame in the buffer needs no
// socket read to bound.
func (cl *Client) RecvFrame(dst []byte) ([]byte, error) {
	cl.consumed = false
	if cl.opts.ReadTimeout > 0 && !FrameBuffered(cl.br) {
		cl.c.SetReadDeadline(time.Now().Add(cl.opts.ReadTimeout))
		defer cl.c.SetReadDeadline(time.Time{})
	}
	full, err := peekFrame(cl.br)
	if err != nil {
		return dst, err
	}
	dst = append(dst, full...)
	if _, err := cl.br.Discard(len(full)); err != nil {
		return dst, err
	}
	cl.consumed = true
	return dst, nil
}

// WriteFrames writes a batch of already-encoded frames with one writev
// syscall, flushing any frames buffered via Send* first so wire order
// is preserved. The Buffers slice is consumed (advanced) by the write,
// per net.Buffers semantics; callers keep their own references to the
// underlying frames.
func (cl *Client) WriteFrames(bufs *net.Buffers) error {
	if cl.opts.WriteTimeout > 0 {
		cl.c.SetWriteDeadline(time.Now().Add(cl.opts.WriteTimeout))
		defer cl.c.SetWriteDeadline(time.Time{})
	}
	if cl.bw.Buffered() > 0 {
		if err := cl.bw.Flush(); err != nil {
			return err
		}
	}
	_, err := bufs.WriteTo(cl.c)
	return err
}

// SendDrain queues a DRAIN (quiescent use only).
func (cl *Client) SendDrain() { cl.queue(cl.header(OpDrain, 0)) }

// Flush pushes all queued requests to the wire.
func (cl *Client) Flush() error {
	if cl.opts.WriteTimeout > 0 {
		cl.c.SetWriteDeadline(time.Now().Add(cl.opts.WriteTimeout))
		defer cl.c.SetWriteDeadline(time.Time{})
	}
	return cl.bw.Flush()
}

// recvRaw reads one response frame with no status mapping. It records
// whether a frame was actually consumed (cl.consumed) so a cancelled
// blocking op knows exactly how many stale frames it leaves behind, and
// reads through Peek/Discard so an aborted wait never strands the
// stream mid-frame.
func (cl *Client) recvRaw() ([]byte, error) {
	cl.consumed = false
	if cl.opts.ReadTimeout > 0 {
		cl.c.SetReadDeadline(time.Now().Add(cl.opts.ReadTimeout))
		defer cl.c.SetReadDeadline(time.Time{})
	}
	p, err := ReadFrame(cl.br, cl.rbuf)
	if err != nil {
		return nil, err
	}
	cl.rbuf = p
	cl.consumed = true
	return p, nil
}

// recv reads one response payload (status byte first), mapping the
// terminal statuses to errors.
func (cl *Client) recv() ([]byte, error) {
	p, err := cl.recvRaw()
	if err != nil {
		return nil, err
	}
	switch p[0] {
	case StatusErr:
		return nil, fmt.Errorf("kvstore: server error: %s", p[1:])
	case StatusDeadlineExceeded:
		return nil, ErrDeadlineExceeded
	case StatusOverloaded:
		return nil, ErrOverloaded
	}
	return p, nil
}

// RecvGet consumes a GET response.
func (cl *Client) RecvGet() (val uint64, found bool, err error) {
	p, err := cl.recv()
	if err != nil {
		return 0, false, err
	}
	if p[0] == StatusNotFound {
		return 0, false, nil
	}
	v, ok := getU64(p, 1)
	if !ok {
		return 0, false, fmt.Errorf("kvstore: short GET response")
	}
	return v, true, nil
}

// RecvPut consumes a PUT response; inserted is true for a fresh key.
func (cl *Client) RecvPut() (inserted bool, err error) {
	p, err := cl.recv()
	if err != nil {
		return false, err
	}
	return len(p) >= 2 && p[1] == 1, nil
}

// RecvDel consumes a DEL response; found is false for an absent key.
func (cl *Client) RecvDel() (found bool, err error) {
	p, err := cl.recv()
	if err != nil {
		return false, err
	}
	return p[0] == StatusOK, nil
}

// RecvScan consumes a SCAN response, appending interleaved k,v pairs to
// dst and returning the extended slice.
func (cl *Client) RecvScan(dst []uint64) ([]uint64, error) {
	p, err := cl.recv()
	if err != nil {
		return dst, err
	}
	n, ok := getU32(p, 1)
	if !ok {
		return dst, fmt.Errorf("kvstore: short SCAN response")
	}
	off := 5
	for i := uint32(0); i < 2*n; i++ {
		w, ok := getU64(p, off)
		if !ok {
			return dst, fmt.Errorf("kvstore: truncated SCAN response")
		}
		dst = append(dst, w)
		off += 8
	}
	return dst, nil
}

// RecvStats consumes a STATS response.
func (cl *Client) RecvStats() (Stats, error) {
	var st Stats
	p, err := cl.recv()
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(p[1:], &st)
	return st, err
}

// RecvDrain consumes a DRAIN response.
func (cl *Client) RecvDrain() (DrainReport, error) {
	var rep DrainReport
	p, err := cl.recv()
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(p[1:], &rep)
	return rep, err
}

// arm points ctx cancellation at a blocked response read: on ctx.Done
// the read deadline is forced into the past, which wakes the reader
// with a timeout error, and the returned finish func maps that error
// back to ctx's cause. Cancellation abandons the wait, not the
// connection — the conn stays open and the caller decides whether to
// Close it. The deadline poison is connection-wide, which is why only
// the head of the ticket queue (the sole goroutine reading responses)
// ever arms a context: armed anywhere else, one op's cancellation
// would fail a concurrent, never-cancelled op mid-read. Peek/Discard
// framing (ReadFrame) guarantees the aborted read consumed
// nothing, so the stream stays aligned for the next owner.
func (cl *Client) arm(ctx context.Context) func(error) error {
	if ctx == nil || ctx.Done() == nil {
		return func(err error) error { return err }
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			cl.c.SetReadDeadline(time.Now())
		case <-quit:
		}
	}()
	return func(err error) error {
		close(quit)
		<-exited
		// Clear the poison deadline so the connection stays usable; the
		// watcher has exited, so nothing can re-poison it afterwards.
		cl.c.SetReadDeadline(time.Time{})
		if err != nil && ctx.Err() != nil {
			return fmt.Errorf("kvstore: %w", context.Cause(ctx))
		}
		return err
	}
}

// startOp queues one blocking round trip: the request is sent and
// flushed under hmu — so wire order matches ticket order — and a
// ticket is appended to the response FIFO. A ticket enqueued into an
// empty queue becomes the owner immediately, inheriting any stale-frame
// debt cancelled predecessors left behind.
func (cl *Client) startOp(send func()) (*ticket, error) {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	send()
	if err := cl.Flush(); err != nil {
		return nil, err
	}
	t := &ticket{ready: make(chan struct{})}
	if cl.tailT == nil {
		t.skip, cl.skips = cl.skips, 0
		cl.headT, cl.tailT = t, t
		close(t.ready)
	} else {
		cl.tailT.next = t
		cl.tailT = t
	}
	return t, nil
}

// awaitHead blocks until t owns the read side or ctx is cancelled. On
// cancellation it re-checks ownership under hmu: a ticket that became
// head in the race must proceed (its armed read settles the books);
// one still queued is marked abandoned and its frame becomes debt.
func (cl *Client) awaitHead(ctx context.Context, t *ticket) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		<-t.ready
		return nil
	}
	select {
	case <-t.ready:
		return nil
	case <-done:
	}
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	select {
	case <-t.ready:
		return nil
	default:
		t.abandoned = true
		return fmt.Errorf("kvstore: %w", context.Cause(ctx))
	}
}

// finishOp runs t's turn at the head of the response FIFO: discard the
// stale frames cancelled predecessors owe, read this op's response with
// ctx armed (only the head ever arms — see arm), then hand ownership to
// the next live ticket along with whatever debt this turn left unpaid.
// recvFn must fully parse the response before returning: the underlying
// buffer is reused by the next owner.
func (cl *Client) finishOp(ctx context.Context, t *ticket, recvFn func() error) error {
	if err := cl.awaitHead(ctx, t); err != nil {
		return err
	}
	if ctx != nil && ctx.Err() != nil {
		// Became head while already cancelled: don't bother arming a
		// read that must abort; leave the debt and hand off.
		cl.finishTurn(t.skip + 1)
		return fmt.Errorf("kvstore: %w", context.Cause(ctx))
	}
	finish := cl.arm(ctx)
	var err error
	for t.skip > 0 && err == nil {
		if _, err = cl.recvRaw(); err == nil {
			t.skip--
		}
	}
	reached := false
	if err == nil {
		reached = true
		err = recvFn()
	}
	err = finish(err)
	owed := t.skip
	if !reached || !cl.consumed {
		owed++ // this op's own response is still on the wire
	}
	cl.finishTurn(owed)
	return err
}

// finishTurn pops the head ticket and promotes the next live one,
// folding in owed stale frames plus the debt of any tickets that were
// abandoned while queued.
func (cl *Client) finishTurn(owed int) {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	t := cl.headT.next
	for t != nil && t.abandoned {
		owed += t.skip + 1
		t = t.next
	}
	cl.headT = t
	if t == nil {
		cl.tailT = nil
		cl.skips += owed
		return
	}
	t.skip += owed
	close(t.ready)
}

// budgetFor derives the wire budget from ctx: the remaining time to its
// deadline, or 0 (no budget field) when ctx has none. An already-expired
// ctx fails the op before any bytes go out.
func (cl *Client) budgetFor(ctx context.Context) (time.Duration, error) {
	if ctx == nil {
		return 0, nil
	}
	if ctx.Err() != nil {
		return 0, fmt.Errorf("kvstore: %w", context.Cause(ctx))
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	d := time.Until(dl)
	if d <= 0 {
		return 0, fmt.Errorf("kvstore: %w", context.DeadlineExceeded)
	}
	return d, nil
}

// Get is a blocking round trip; cancelling ctx aborts this op's wait
// (never a concurrent op's) without closing the connection. A ctx
// deadline also rides the wire as an execution budget.
func (cl *Client) Get(ctx context.Context, key uint64) (uint64, bool, error) {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return 0, false, err
	}
	t, err := cl.startOp(func() { cl.SendGetBudget(key, budget) })
	if err != nil {
		return 0, false, err
	}
	var v uint64
	var found bool
	err = cl.finishOp(ctx, t, func() (e error) {
		v, found, e = cl.RecvGet()
		return e
	})
	return v, found, err
}

// Put is a blocking round trip.
func (cl *Client) Put(ctx context.Context, key, val uint64) (bool, error) {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return false, err
	}
	t, err := cl.startOp(func() { cl.SendPutBudget(key, val, budget) })
	if err != nil {
		return false, err
	}
	var ins bool
	err = cl.finishOp(ctx, t, func() (e error) {
		ins, e = cl.RecvPut()
		return e
	})
	return ins, err
}

// Del is a blocking round trip.
func (cl *Client) Del(ctx context.Context, key uint64) (bool, error) {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return false, err
	}
	t, err := cl.startOp(func() { cl.SendDelBudget(key, budget) })
	if err != nil {
		return false, err
	}
	var found bool
	err = cl.finishOp(ctx, t, func() (e error) {
		found, e = cl.RecvDel()
		return e
	})
	return found, err
}

// Scan is a blocking round trip returning interleaved k,v pairs.
func (cl *Client) Scan(ctx context.Context, from uint64, limit uint32) ([]uint64, error) {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return nil, err
	}
	t, err := cl.startOp(func() { cl.SendScanBudget(from, limit, budget) })
	if err != nil {
		return nil, err
	}
	var pairs []uint64
	err = cl.finishOp(ctx, t, func() (e error) {
		pairs, e = cl.RecvScan(nil)
		return e
	})
	return pairs, err
}

// Stats is a blocking round trip.
func (cl *Client) Stats(ctx context.Context) (Stats, error) {
	t, err := cl.startOp(cl.SendStats)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	err = cl.finishOp(ctx, t, func() (e error) {
		st, e = cl.RecvStats()
		return e
	})
	return st, err
}

// Drain is a blocking round trip (quiescent use only).
func (cl *Client) Drain(ctx context.Context) (DrainReport, error) {
	t, err := cl.startOp(cl.SendDrain)
	if err != nil {
		return DrainReport{}, err
	}
	var rep DrainReport
	err = cl.finishOp(ctx, t, func() (e error) {
		rep, e = cl.RecvDrain()
		return e
	})
	return rep, err
}

// clusterRPC does one blocking admin round trip against a kvproxy and
// unmarshals the JSON response into out (skipped when out is nil).
func (cl *Client) clusterRPC(ctx context.Context, op uint8, addr string, out any) error {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return err
	}
	t, err := cl.startOp(func() { cl.queue(append(cl.header(op, budget), addr...)) })
	if err != nil {
		return err
	}
	return cl.finishOp(ctx, t, func() error {
		resp, e := cl.recv()
		if e != nil {
			return e
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(resp[1:], out)
	})
}

// ClusterInfo fetches a kvproxy's topology snapshot. The result is the
// raw JSON (cluster.Info) so kvstore does not import the cluster
// package.
func (cl *Client) ClusterInfo(ctx context.Context) (json.RawMessage, error) {
	var raw json.RawMessage
	err := cl.clusterRPC(ctx, OpClusterInfo, "", &raw)
	return raw, err
}

// ClusterAdd asks a kvproxy to add a backend and hand its share of the
// keys over; the JSON response is a cluster.RebalanceReport.
func (cl *Client) ClusterAdd(ctx context.Context, addr string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := cl.clusterRPC(ctx, OpClusterAdd, addr, &raw)
	return raw, err
}

// ClusterDrain asks a kvproxy to hand a backend's keys off to the rest
// of the ring and then drop it from the topology.
func (cl *Client) ClusterDrain(ctx context.Context, addr string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := cl.clusterRPC(ctx, OpClusterDrain, addr, &raw)
	return raw, err
}

// ClusterRemove drops a backend from a kvproxy's topology with no
// handoff — the verb for a node that is already gone.
func (cl *Client) ClusterRemove(ctx context.Context, addr string) error {
	return cl.clusterRPC(ctx, OpClusterRemove, addr, nil)
}
