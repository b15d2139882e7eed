package kvstore

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
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
// a full round trip on the owner's goroutine and must not be mixed with
// outstanding pipelined requests. A Client used through them has one
// owner: two goroutines calling helpers on one Client concurrently is a
// data race, which -race reports. A cancelled ctx aborts the op's wait,
// not the connection; the frame it leaves on the wire is discarded by
// the next helper call (see do).
type Client struct {
	c    net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	opts options

	wbuf []byte
	rbuf []byte

	// owed counts the responses still on the wire that blocking helpers
	// are due to read: this op's own, plus one per op whose wait a
	// cancelled ctx aborted before its frame arrived.
	owed int
	// aborted receives once from each abortRead that ran, so do never
	// clears the read deadline before the poison has landed.
	aborted chan struct{}
}

// options configures a Client connection; Dial's Option arguments set
// it. The zero value is plain Dial: no timeouts, no retries, 64 KiB
// buffers.
type options struct {
	// DialTimeout bounds the TCP connect (0 = OS default).
	DialTimeout time.Duration
	// ReadTimeout bounds each Recv* read and each blocking helper's wait
	// for its response; 0 disables. A pipelined receiver under a stalled
	// server fails with a timeout error instead of hanging forever.
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
	// attempts and backoffs; once spent, Dial returns the last dial
	// error without waiting out the remaining retries (default 15s when
	// DialRetries > 0; negative disables the cap).
	DialRetryBudget time.Duration
}

func (o *options) bufSize() int {
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

// Option adjusts one connection knob; pass any number to Dial.
type Option func(*options)

// WithDialTimeout bounds the TCP connect.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.DialTimeout = d }
}

// WithReadTimeout bounds each response read.
func WithReadTimeout(d time.Duration) Option {
	return func(o *options) { o.ReadTimeout = d }
}

// WithWriteTimeout bounds each Flush.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) { o.WriteTimeout = d }
}

// WithPipelineDepth sizes the connection buffers for n in-flight
// requests.
func WithPipelineDepth(n int) Option {
	return func(o *options) { o.Pipeline = n }
}

// WithRetries grants n extra connect attempts after a dial failure.
func WithRetries(n int) Option {
	return func(o *options) { o.DialRetries = n }
}

// WithRetryBackoff sets the wait before the first retry (doubling per
// attempt, ±25% jitter).
func WithRetryBackoff(d time.Duration) Option {
	return func(o *options) { o.DialBackoff = d }
}

// WithRetryBudget caps the total wall-clock spent across dial attempts
// and backoffs; negative disables the cap.
func WithRetryBudget(d time.Duration) Option {
	return func(o *options) { o.DialRetryBudget = d }
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
func Dial(addr string, with ...Option) (*Client, error) {
	var opts options
	for _, opt := range with {
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
		c:       c,
		bw:      bufio.NewWriterSize(c, size),
		br:      bufio.NewReaderSize(c, rsize),
		opts:    opts,
		aborted: make(chan struct{}, 1),
	}, nil
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// CloseWrite half-closes the sending side, telling the server the
// pipeline is complete; queued responses still arrive. A failed flush
// of the queued requests is returned and the socket left open.
func (cl *Client) CloseWrite() error {
	if err := cl.Flush(); err != nil {
		return err
	}
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
	if cl.opts.ReadTimeout > 0 && !FrameBuffered(cl.br) {
		cl.c.SetReadDeadline(time.Now().Add(cl.opts.ReadTimeout))
		defer cl.c.SetReadDeadline(time.Time{})
	}
	full, err := peekFrame(cl.br)
	if err != nil {
		return dst, err
	}
	dst = append(dst, full...)
	_, err = cl.br.Discard(len(full))
	return dst, err
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

// recv reads one response payload (status byte first), mapping the
// terminal statuses to errors.
func (cl *Client) recv() ([]byte, error) {
	if cl.opts.ReadTimeout > 0 {
		cl.c.SetReadDeadline(time.Now().Add(cl.opts.ReadTimeout))
		defer cl.c.SetReadDeadline(time.Time{})
	}
	p, err := ReadFrame(cl.br, cl.rbuf)
	if err != nil {
		return nil, err
	}
	cl.rbuf = p
	return checkStatus(p)
}

// checkStatus maps a response payload's terminal statuses to errors.
func checkStatus(p []byte) ([]byte, error) {
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

// The *Resp parsers decode one response payload as recv or do returns
// it, error included, so the Recv* halves and the blocking helpers
// share them.

func getResp(p []byte, err error) (uint64, bool, error) {
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

func putResp(p []byte, err error) (bool, error) {
	return err == nil && len(p) >= 2 && p[1] == 1, err
}

func delResp(p []byte, err error) (bool, error) {
	return err == nil && p[0] == StatusOK, err
}

func scanResp(dst []uint64, p []byte, err error) ([]uint64, error) {
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

// jsonResp unmarshals a JSON response body into out (skipped when out
// is nil).
func jsonResp(out any, p []byte, err error) error {
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(p[1:], out)
}

// RecvGet consumes a GET response.
func (cl *Client) RecvGet() (val uint64, found bool, err error) { return getResp(cl.recv()) }

// RecvPut consumes a PUT response; inserted is true for a fresh key.
func (cl *Client) RecvPut() (inserted bool, err error) { return putResp(cl.recv()) }

// RecvDel consumes a DEL response; found is false for an absent key.
func (cl *Client) RecvDel() (found bool, err error) { return delResp(cl.recv()) }

// RecvScan consumes a SCAN response, appending interleaved k,v pairs to
// dst and returning the extended slice.
func (cl *Client) RecvScan(dst []uint64) ([]uint64, error) {
	p, err := cl.recv()
	return scanResp(dst, p, err)
}

// RecvStats consumes a STATS response.
func (cl *Client) RecvStats() (Stats, error) {
	var st Stats
	p, err := cl.recv()
	err = jsonResp(&st, p, err)
	return st, err
}

// RecvDrain consumes a DRAIN response.
func (cl *Client) RecvDrain() (DrainReport, error) {
	var rep DrainReport
	p, err := cl.recv()
	err = jsonResp(&rep, p, err)
	return rep, err
}

// do is the one blocking round trip. It derives the wire budget from
// ctx, sends and flushes the request, discards the responses that
// cancelled predecessors left owed, and reads this op's own with ctx
// armed; parse decodes it before the read buffer is reused.
//
// Cancellation abandons the wait, not the connection: context.AfterFunc
// forces the read deadline into the past (abortRead), which wakes the
// blocked read with a timeout error that do maps back to ctx's cause.
// Peek/Discard framing (ReadFrame) guarantees the aborted read consumed
// nothing, so the unread frame stays owed and the stream stays aligned
// for the next call. The caller decides whether to Close.
func (cl *Client) do(ctx context.Context, send func(budget time.Duration), parse func([]byte, error) error) error {
	budget, err := cl.budgetFor(ctx)
	if err != nil {
		return err
	}
	send(budget)
	if err := cl.Flush(); err != nil {
		return err
	}
	cl.owed++
	if cl.opts.ReadTimeout > 0 {
		cl.c.SetReadDeadline(time.Now().Add(cl.opts.ReadTimeout))
		defer cl.c.SetReadDeadline(time.Time{})
	}
	var stop func() bool
	if ctx != nil && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cl.abortRead)
	}
	var p []byte
	for err == nil && cl.owed > 0 {
		if p, err = ReadFrame(cl.br, cl.rbuf); err == nil {
			cl.rbuf = p
			cl.owed--
		}
	}
	if stop != nil && !stop() {
		<-cl.aborted // abortRead has poisoned the deadline; now lift it
		cl.c.SetReadDeadline(time.Time{})
		if err != nil {
			return fmt.Errorf("kvstore: %w", context.Cause(ctx))
		}
	}
	if err != nil {
		return err
	}
	return parse(checkStatus(p))
}

// abortRead is do's AfterFunc: it wakes a blocked response read by
// forcing the read deadline into the past.
func (cl *Client) abortRead() {
	cl.c.SetReadDeadline(time.Now())
	cl.aborted <- struct{}{}
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

// Get is a blocking round trip; cancelling ctx aborts its wait without
// closing the connection. A ctx deadline also rides the wire as an
// execution budget.
func (cl *Client) Get(ctx context.Context, key uint64) (val uint64, found bool, err error) {
	err = cl.do(ctx, func(b time.Duration) { cl.SendGetBudget(key, b) },
		func(p []byte, e error) error { val, found, e = getResp(p, e); return e })
	return val, found, err
}

// Put is a blocking round trip.
func (cl *Client) Put(ctx context.Context, key, val uint64) (inserted bool, err error) {
	err = cl.do(ctx, func(b time.Duration) { cl.SendPutBudget(key, val, b) },
		func(p []byte, e error) error { inserted, e = putResp(p, e); return e })
	return inserted, err
}

// Del is a blocking round trip.
func (cl *Client) Del(ctx context.Context, key uint64) (found bool, err error) {
	err = cl.do(ctx, func(b time.Duration) { cl.SendDelBudget(key, b) },
		func(p []byte, e error) error { found, e = delResp(p, e); return e })
	return found, err
}

// Scan is a blocking round trip returning interleaved k,v pairs.
func (cl *Client) Scan(ctx context.Context, from uint64, limit uint32) (pairs []uint64, err error) {
	err = cl.do(ctx, func(b time.Duration) { cl.SendScanBudget(from, limit, b) },
		func(p []byte, e error) error { pairs, e = scanResp(nil, p, e); return e })
	return pairs, err
}

// Stats is a blocking round trip.
func (cl *Client) Stats(ctx context.Context) (st Stats, err error) {
	err = cl.do(ctx, func(time.Duration) { cl.SendStats() },
		func(p []byte, e error) error { return jsonResp(&st, p, e) })
	return st, err
}

// Drain is a blocking round trip (quiescent use only).
func (cl *Client) Drain(ctx context.Context) (rep DrainReport, err error) {
	err = cl.do(ctx, func(time.Duration) { cl.SendDrain() },
		func(p []byte, e error) error { return jsonResp(&rep, p, e) })
	return rep, err
}

// clusterRPC does one blocking admin round trip against a kvproxy and
// unmarshals the JSON response into out (skipped when out is nil).
func (cl *Client) clusterRPC(ctx context.Context, op uint8, addr string, out any) error {
	return cl.do(ctx, func(b time.Duration) { cl.queue(append(cl.header(op, b), addr...)) },
		func(p []byte, e error) error { return jsonResp(out, p, e) })
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
