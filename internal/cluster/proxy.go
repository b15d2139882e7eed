package cluster

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// Config sizes a Proxy. The zero value of every field gets a sane
// default from New.
type Config struct {
	Backends []string // initial backend addresses
	Replicas int      // copies per key, clamped to the backend count (default 2)
	VNodes   int      // ring vnode budget (default DefaultVNodes)
	Depth    int      // in-flight requests per backend (default 512)

	DialTimeout time.Duration // per backend connect (default 2s)
	IOTimeout   time.Duration // per backend response read (default 10s)

	Metrics *obs.Registry // optional; nil disables instrumentation
}

const (
	maxReplicas = 8
	stripeCount = 1024 // write-serialization stripes (power of two)
)

// topology is the immutable (ring, backends) pair the routing path
// reads with one atomic load — ids in the ring index backs directly.
type topology struct {
	ring  *Ring
	backs []*backend
}

// Proxy terminates the kvstore wire protocol on its client side and
// routes each op to a replica set of backends chosen by the ring.
//
// Consistency contract (what makes hedged reads and failover safe):
// an acked write is present on every read-eligible replica of its key.
// Writes fan out to all write-eligible replicas under a per-key stripe
// lock and ride each backend's one lane, so replicas execute same-key
// writes in one global order; any healthy replica that fails a write is
// demoted out of the read set *before* the client sees the ack. Reads
// therefore trust whichever read-eligible replica answers first.
//
// Topology changes are two-phase: while a migration is in flight the
// proxy routes writes to the union of the current and next replica
// sets but keeps reading from the current ones, and only swaps the
// ring once the handoff has copied every key to its new home.
type Proxy struct {
	cfg Config
	reg *obs.Registry

	topo   atomic.Pointer[topology]
	next   atomic.Pointer[topology] // non-nil while a migration is in flight
	tmu    sync.Mutex               // serializes topology changes
	byAddr map[string]*backend

	locks [stripeCount]sync.Mutex

	ln     net.Listener
	cmu    sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	routed          atomic.Uint64 // client requests dispatched
	hedges          atomic.Uint64 // hedged reads fired
	hedgeWins       atomic.Uint64 // hedges that answered first (or rescued a failed primary)
	hedgesCancelled atomic.Uint64 // losing hedge calls abandoned (lane claim released early)
	readRetries     atomic.Uint64 // reads that failed over past the first replica
	degraded        atomic.Uint64 // writes acked with fewer than the full replica set
	keysMoved       atomic.Uint64 // keys copied by resync/handoff
	shedObserved    atomic.Uint64 // backend shed/deadline statuses seen on forwarded ops
	deadlineRejects atomic.Uint64 // ops the proxy itself refused on an expired budget
}

// New builds a proxy over the configured backends and starts their
// lanes. Backends need not be reachable yet — each backend's monitor
// dials with jittered backoff until its server appears. The initial
// backends are assumed empty-and-consistent (a fresh cluster); nodes
// added or re-added later always resync before serving reads.
func New(cfg Config) *Proxy {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > maxReplicas {
		cfg.Replicas = maxReplicas
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 512
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	p := &Proxy{
		cfg:    cfg,
		reg:    cfg.Metrics,
		byAddr: map[string]*backend{},
		conns:  map[net.Conn]struct{}{},
	}
	backs := make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		b := newBackend(p, addr, p.reg.Hist("cluster/backend/"+addr+"/rtt"))
		p.byAddr[addr] = b
		backs[i] = b
	}
	p.topo.Store(&topology{ring: BuildRing(cfg.Backends, cfg.VNodes), backs: backs})
	p.instrument()
	for _, b := range backs {
		p.registerBackendMetrics(b)
		b.start(true)
	}
	return p
}

func (p *Proxy) instrument() {
	reg := p.reg
	if reg == nil {
		return
	}
	reg.GaugeFunc("cluster/backends", func() int64 { return int64(len(p.topo.Load().backs)) })
	reg.GaugeFunc("cluster/ops/routed", func() int64 { return int64(p.routed.Load()) })
	reg.GaugeFunc("cluster/hedge/fired", func() int64 { return int64(p.hedges.Load()) })
	reg.GaugeFunc("cluster/hedge/wins", func() int64 { return int64(p.hedgeWins.Load()) })
	reg.GaugeFunc("cluster/hedge/cancelled", func() int64 { return int64(p.hedgesCancelled.Load()) })
	reg.GaugeFunc("cluster/sheds_observed", func() int64 { return int64(p.shedObserved.Load()) })
	reg.GaugeFunc("cluster/deadline_rejects", func() int64 { return int64(p.deadlineRejects.Load()) })
	reg.GaugeFunc("cluster/read/retries", func() int64 { return int64(p.readRetries.Load()) })
	reg.GaugeFunc("cluster/writes/degraded", func() int64 { return int64(p.degraded.Load()) })
	reg.GaugeFunc("cluster/rebalance/keys_moved", func() int64 { return int64(p.keysMoved.Load()) })
	reg.GaugeFunc("cluster/breaker/trips", func() int64 {
		p.tmu.Lock()
		defer p.tmu.Unlock()
		var n int64
		for _, b := range p.byAddr {
			n += int64(b.trips.Load())
		}
		return n
	})
}

func (p *Proxy) registerBackendMetrics(b *backend) {
	if p.reg == nil {
		return
	}
	prefix := "cluster/backend/" + b.addr
	p.reg.GaugeFunc(prefix+"/inflight", b.inflight.Load)
	p.reg.GaugeFunc(prefix+"/state", func() int64 { return int64(b.state.Load()) })
	p.reg.GaugeFunc(prefix+"/trips", func() int64 { return int64(b.trips.Load()) })
	p.reg.GaugeFunc(prefix+"/lane_writes", b.laneWrites.Load)
	p.reg.GaugeFunc(prefix+"/lane_frames", b.laneFrames.Load)
}

// WaitReady blocks until every backend in the current topology is
// healthy, or the timeout elapses.
func (p *Proxy) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for _, b := range p.topo.Load().backs {
			if !b.readEligible() {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: backends not ready before timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Serve accepts client connections until the listener closes.
func (p *Proxy) Serve(ln net.Listener) error {
	p.cmu.Lock()
	p.ln = ln
	p.cmu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			p.cmu.Lock()
			closed := p.closed
			p.cmu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.cmu.Lock()
		if p.closed {
			p.cmu.Unlock()
			c.Close()
			return nil
		}
		p.conns[c] = struct{}{}
		p.wg.Add(1)
		p.cmu.Unlock()
		go p.handle(c)
	}
}

// Shutdown stops accepting, unblocks every client reader, waits for
// in-flight requests to answer, and tears down the backend lanes.
func (p *Proxy) Shutdown() {
	p.cmu.Lock()
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
	}
	for c := range p.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseRead()
		}
	}
	p.cmu.Unlock()
	p.wg.Wait()
	p.tmu.Lock()
	backs := make([]*backend, 0, len(p.byAddr))
	for _, b := range p.byAddr {
		backs = append(backs, b)
	}
	p.tmu.Unlock()
	for _, b := range backs {
		b.stopAndWait()
	}
}

// handle is the per-client-connection loop, one goroutine per
// connection like kvserver's. It dispatches every whole frame already
// in the read buffer, up to Depth, as one burst — data ops run as
// pooled state machines, so nothing here spawns — then writes each
// backend lane the burst queued frames on, parks once until the
// burst's last call settles, writes the responses in request
// order (the protocol's pipelining contract) with one writev, and
// reads again. Lane receivers settle the calls but never touch the
// client socket, so a client that stops reading stalls only its own
// reader. A read error ends the loop once the burst in hand is
// answered.
func (p *Proxy) handle(c net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.cmu.Lock()
		delete(p.conns, c)
		p.cmu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bu := &burst{wake: make(chan struct{}, 1)}
	var (
		req  []byte
		bufs net.Buffers
		err  error
	)
	for err == nil {
		bu.outstanding.Store(1) // the reader's hold: no wake while dispatching
		for len(bu.calls) < p.cfg.Depth {
			var payload []byte
			if payload, err = kvstore.ReadFrame(br, req); err != nil {
				break
			}
			req = payload
			ca := getCall(bu)
			bu.outstanding.Add(1)
			bu.calls = append(bu.calls, ca)
			p.dispatch(payload, ca, &bu.lanes)
			if !kvstore.FrameBuffered(br) {
				break
			}
		}
		bu.lanes.flush()
		if bu.outstanding.Add(-1) != 0 {
			<-bu.wake
		}
		for _, ca := range bu.calls {
			if ca.err != nil {
				eb := getBuf()
				out, fs := kvstore.BeginFrame((*eb)[:0])
				*eb = kvstore.ErrFrame(out, fs, ca.err.Error())
				ca.respBuf = eb
			}
			bufs = append(bufs, *ca.respBuf)
		}
		if len(bufs) > 0 {
			w := bufs // WriteTo consumes its slice; keep ours for reuse
			if _, werr := w.WriteTo(c); werr != nil {
				err = werr // the client cannot receive; stop reading for it
			}
		}
		for i, ca := range bu.calls {
			putCall(ca)
			bu.calls[i], bufs[i] = nil, nil
		}
		bu.calls, bufs = bu.calls[:0], bufs[:0]
	}
}

// burst is one client connection's dispatched calls, in request order.
// outstanding counts the unsettled calls plus the reader's hold while
// it dispatches; whichever settler retires the last count wakes the
// reader, so a burst costs the reader one park.
type burst struct {
	calls       []*call
	lanes       laneSet // lanes the burst queued frames on, written before the park
	outstanding atomic.Int32
	wake        chan struct{} // cap 1: one send per burst
}

func (bu *burst) backendDone(*call) {
	if bu.outstanding.Add(-1) == 0 {
		bu.wake <- struct{}{}
	}
}

var (
	errShortReq = errors.New("cluster: short request")
	errBusy     = errors.New("cluster: topology change already in progress")
)

// dispatch starts one request payload on the client call ca, which
// settles through its owner's backendDone. Data ops (GET/PUT/DEL)
// start a pooled state machine inline — zero goroutines, zero
// allocations on the steady-state path — and SCAN/STATS scatter to
// their backends inline, merging on the last reply; the lane receivers
// drive the completions. The operator verbs (CLUSTER_INFO, DRAIN, the
// topology changes) are the slow path and get one goroutine each from
// admin. A budget prefix is stripped here and becomes a proxy-local
// deadline; handlers forward the remaining budget (minus each backend's
// observed RTT) and refuse ops whose budget is already spent before
// submitting anything — the not-executed contract holds through the
// proxy.
func (p *Proxy) dispatch(payload []byte, ca *call, ls *laneSet) {
	p.routed.Add(1)
	req, budget, okb := kvstore.SplitBudget(payload)
	if !okb {
		ca.fail(errShortReq)
		return
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	switch op := req[0]; op {
	case kvstore.OpGet:
		key, ok := kvstore.PayloadU64(req, 1)
		if !ok {
			ca.fail(errShortReq)
			return
		}
		p.startGet(req, key, deadline, ca, ls)
	case kvstore.OpPut, kvstore.OpDel:
		key, ok := kvstore.PayloadU64(req, 1)
		if !ok {
			ca.fail(errShortReq)
			return
		}
		p.startWrite(req, key, deadline, ca, ls)
	case kvstore.OpScan:
		from, ok1 := kvstore.PayloadU64(req, 1)
		limit, ok2 := kvstore.PayloadU32(req, 9)
		if !ok1 || !ok2 {
			ca.fail(errShortReq)
			return
		}
		p.doScan(from, limit, deadline, ca, ls)
	case kvstore.OpStats:
		p.doStats(ca, ls)
	case kvstore.OpClusterInfo, kvstore.OpDrain, kvstore.OpClusterAdd, kvstore.OpClusterDrain, kvstore.OpClusterRemove:
		go p.admin(op, string(req[1:]), deadline, ca) // the address is copied before the reader reuses req
	default:
		ca.fail(fmt.Errorf("cluster: unknown op %d", req[0]))
	}
}

// completeStatus finishes a client call with a bare status frame — the
// not-executed statuses (StatusDeadlineExceeded / StatusOverloaded).
func completeStatus(ca *call, status uint8) {
	buf := getBuf()
	*buf = kvstore.StatusFrame((*buf)[:0], status)
	ca.complete(buf)
}

// isShedStatus reports whether a backend response is one of the two
// refused-without-executing statuses.
func isShedStatus(resp []byte) bool {
	return len(resp) > 0 && (resp[0] == kvstore.StatusOverloaded || resp[0] == kvstore.StatusDeadlineExceeded)
}

func (p *Proxy) replicas() int { return p.cfg.Replicas }

// transfer moves a backend response into the client-facing call
// (buffer ownership included) and settles it through its owner.
func transfer(src, dst *call) {
	dst.respBuf, dst.resp = src.respBuf, src.resp
	src.respBuf, src.resp = nil, nil
	putCall(src)
	dst.cont.backendDone(dst)
}

// readSet appends the read-eligible replicas of key, preference order.
func (p *Proxy) readSet(key uint64, dst []*backend) []*backend {
	t := p.topo.Load()
	var idbuf [maxReplicas]int32
	for _, id := range t.ring.Lookup(key, p.replicas(), idbuf[:0]) {
		if b := t.backs[id]; b.readEligible() {
			dst = append(dst, b)
		}
	}
	return dst
}

// writeSet appends the write-eligible replicas of key — the union of
// the current and (mid-migration) next topologies' replica sets, so a
// key being handed off keeps both its old and new homes fresh.
// healthy[i] records read-eligibility at submission time, which decides
// whether a failure must demote the replica before the ack.
func (p *Proxy) writeSet(key uint64, dst []*backend, healthy []bool) ([]*backend, []bool) {
	appendFrom := func(t *topology) {
		var idbuf [maxReplicas]int32
		for _, id := range t.ring.Lookup(key, p.replicas(), idbuf[:0]) {
			b := t.backs[id]
			dup := false
			for _, seen := range dst {
				if seen == b {
					dup = true
					break
				}
			}
			if dup || !b.writeEligible() {
				continue
			}
			dst = append(dst, b)
			healthy = append(healthy, b.readEligible())
		}
	}
	appendFrom(p.topo.Load())
	if nt := p.next.Load(); nt != nil {
		appendFrom(nt)
	}
	return dst, healthy
}

func scanReq(dst []byte, from uint64, limit uint32) []byte {
	dst = append(dst[:0], kvstore.OpScan)
	dst = kvstore.AppendU64(dst, from)
	return kvstore.AppendU32(dst, limit)
}

// doScan scatters the window to every read-eligible backend and
// merges the replies with mergeScan on whichever lane receiver brings
// the last one. A failed leg is tolerated; the scan fails only when no
// backend answered.
func (p *Proxy) doScan(from uint64, limit uint32, deadline time.Time, ca *call, ls *laneSet) {
	// A scan's budget is checked proxy-side only; the backend fan-out
	// stays unbudgeted because a shed scan source would silently truncate
	// the merged window.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		p.deadlineRejects.Add(1)
		completeStatus(ca, kvstore.StatusDeadlineExceeded)
		return
	}
	respond := func(merged []kv) {
		buf := getBuf()
		out, fs := kvstore.BeginFrame((*buf)[:0])
		out = kvstore.AppendU32(append(out, kvstore.StatusOK), uint32(len(merged)))
		for _, e := range merged {
			out = kvstore.AppendU64(kvstore.AppendU64(out, e.k), e.v)
		}
		*buf = kvstore.EndFrame(out, fs)
		ca.complete(buf)
	}
	if limit == 0 {
		respond(nil)
		return
	}
	limit = min(limit, kvstore.MaxScanLimit)
	var sources []*backend
	for _, b := range p.topo.Load().backs {
		if b.readEligible() {
			sources = append(sources, b)
		}
	}
	var req [13]byte
	scatter(sources, scanReq(req[:0], from, limit), ls, func(legs []*call) {
		merged, _, failed := mergeScan(legs, limit, nil)
		if failed == len(legs) {
			ca.fail(errNoReplica)
			return
		}
		respond(merged)
	})
}

// kv is one SCAN pair.
type kv struct{ k, v uint64 }

// mergeScan merges the SCAN replies in legs, each a window of at most
// limit pairs, into dst's storage: ascending keys, one pair per key, at
// most limit pairs. The horizon rule makes the union exact under
// concurrent churn: a leg that filled its window may be missing keys
// past its last one, so nothing past the smallest such last key — the
// horizon — may be trusted. The limit cut enforces it: a full leg
// alone holds limit distinct keys up to its last one, so the first
// limit keys of the union never pass the horizon. more reports that
// keys may remain past the merged window — some leg was full, or the
// limit cut the union short — and the next window resumes after its
// last key. A leg that failed, refused, or answered a malformed window
// counts in failed and contributes nothing.
func mergeScan(legs []*call, limit uint32, dst []kv) (merged []kv, more bool, failed int) {
	merged = dst[:0]
	for _, lc := range legs {
		var n uint32
		ok := lc.err == nil && len(lc.resp) > 0 && lc.resp[0] == kvstore.StatusOK
		if ok {
			n, ok = kvstore.PayloadU32(lc.resp, 1)
			ok = ok && uint64(len(lc.resp)-5) >= 16*uint64(n)
		}
		if !ok {
			failed++
			continue
		}
		for off := 5; off < 5+16*int(n); off += 16 {
			k, _ := kvstore.PayloadU64(lc.resp, off)
			v, _ := kvstore.PayloadU64(lc.resp, off+8)
			merged = append(merged, kv{k, v})
		}
		more = more || n == limit
	}
	slices.SortFunc(merged, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	w := 0
	for _, e := range merged {
		if w > 0 && e.k == merged[w-1].k {
			continue
		}
		if uint32(w) == limit {
			more = true
			break
		}
		merged[w] = e
		w++
	}
	return merged[:w], more, failed
}

// doStats scatters STATS to every backend and aggregates the replies
// that arrive into one snapshot. Per-side detail is omitted: the
// aggregate must fit one response frame regardless of cluster size
// (per-backend sides live on each backend's own /metrics endpoint).
func (p *Proxy) doStats(ca *call, ls *laneSet) {
	scatter(p.topo.Load().backs, []byte{kvstore.OpStats}, ls, func(legs []*call) {
		agg := kvstore.Stats{}
		var schemes []string
		for _, lc := range legs {
			var st kvstore.Stats
			if lc.err != nil || lc.resp[0] != kvstore.StatusOK || json.Unmarshal(lc.resp[1:], &st) != nil {
				continue
			}
			agg.Shards += st.Shards
			agg.Live += st.Live
			agg.MaxLive += st.MaxLive
			agg.Baseline += st.Baseline
			schemes = append(schemes, st.Scheme)
		}
		if len(schemes) == 0 {
			ca.fail(errNoReplica)
			return
		}
		agg.Scheme = "cluster(" + strings.Join(schemes, "+") + ")"
		p.respondJSON(ca, agg)
	})
}

// quiesce waits until the cluster has no internal writers: no topology
// change pending and no backend mid-resync. DRAIN inherits kvstore's
// quiescent-use-only contract, and the proxy's own rebalance traffic
// counts — fanning OpDrain while resync is still copying keys would
// race DrainAndCheck's FlushAll against live Puts on the target store.
func (p *Proxy) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		busy := p.next.Load() != nil
		if !busy {
			// Anything short of Healthy either is resyncing or will
			// start a resync the moment it reconnects (and a down
			// backend can't answer OpDrain anyway) — wait it out.
			for _, b := range p.topo.Load().backs {
				if b.state.Load() != stateHealthy {
					busy = true
					break
				}
			}
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: resync still in progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drain fans DRAIN to every backend and merges the reports: sums of the
// accounting fields, logical AND of the leak verdicts. It inherits
// kvstore's quiescent-use-only DRAIN contract, and the servers enforce
// it: OpDrain claims a backend's whole tid pool, so it only proceeds
// once every other connection to that server — including this proxy's
// own lanes — is gone. The proxy therefore stops all
// lanes, drains each backend over a fresh direct connection, then
// redials them (bootstrap: the stores are all empty now, so no
// resync). Client ops that race the drain window fail fast; drain is an
// operator action, not a data-path verb.
func (p *Proxy) drain() (kvstore.DrainReport, error) {
	agg := kvstore.DrainReport{LeakOK: true}
	if err := p.quiesce(time.Minute); err != nil {
		return agg, err
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if p.next.Load() != nil { // a topology change slipped in after quiesce
		return agg, errors.New("cluster: topology change in progress")
	}
	old := p.topo.Load()
	for _, b := range old.backs {
		b.stopAndWait()
	}

	var schemes []string
	drainErr := func() error {
		for _, b := range old.backs {
			cl, err := kvstore.Dial(b.addr,
				kvstore.WithDialTimeout(p.cfg.DialTimeout),
				kvstore.WithReadTimeout(time.Minute), // the barrier alone can take 30s
				kvstore.WithRetries(2),
			)
			if err != nil {
				return fmt.Errorf("cluster: drain %s: %w", b.addr, err)
			}
			rep, err := cl.Drain(context.Background())
			cl.Close()
			if err != nil {
				return fmt.Errorf("cluster: drain %s: %w", b.addr, err)
			}
			agg.Baseline += rep.Baseline
			agg.Live += rep.Live
			agg.RetiredNotFreed += rep.RetiredNotFreed
			agg.Deleted += rep.Deleted
			agg.LeakOK = agg.LeakOK && rep.LeakOK
			schemes = append(schemes, rep.Scheme)
		}
		return nil
	}()

	// Rebuild the backends on the same ring, carrying each backend's RTT
	// history so hedge delays stay calibrated.
	backs := make([]*backend, len(old.backs))
	for i, ob := range old.backs {
		nb := newBackend(p, ob.addr, ob.rtt)
		p.byAddr[ob.addr] = nb
		p.registerBackendMetrics(nb)
		backs[i] = nb
		nb.start(true)
	}
	p.topo.Store(&topology{ring: old.ring, backs: backs})
	agg.Scheme = "cluster(" + strings.Join(schemes, "+") + ")"
	return agg, drainErr
}

// NodeInfo is one backend's slice of the Info snapshot.
type NodeInfo struct {
	Addr         string `json:"addr"`
	Scheme       string `json:"scheme"`
	State        string `json:"state"`
	Inflight     int64  `json:"inflight"`
	BreakerTrips uint64 `json:"breaker_trips"`
	DialFailures int64  `json:"dial_failures"`
	HedgeDelayUs int64  `json:"hedge_delay_us"`
}

// Info is the CLUSTER_INFO response.
type Info struct {
	Replicas        int        `json:"replicas"`
	VNodes          int        `json:"vnodes"`
	Migrating       bool       `json:"migrating"`
	Nodes           []NodeInfo `json:"nodes"`
	RoutedOps       uint64     `json:"routed_ops"`
	HedgesFired     uint64     `json:"hedges_fired"`
	HedgeWins       uint64     `json:"hedge_wins"`
	HedgesCancelled uint64     `json:"hedges_cancelled"`
	ReadRetries     uint64     `json:"read_retries"`
	DegradedWrites  uint64     `json:"degraded_writes"`
	KeysMoved       uint64     `json:"keys_moved"`
	ShedsObserved   uint64     `json:"sheds_observed"`
	DeadlineRejects uint64     `json:"deadline_rejects"`
}

// Snapshot assembles the Info the CLUSTER_INFO verb serves; in-process
// embedders (the torture harness) read it directly.
func (p *Proxy) Snapshot() Info {
	p.tmu.Lock()
	backs := make([]*backend, 0, len(p.byAddr))
	for _, b := range p.byAddr {
		backs = append(backs, b)
	}
	p.tmu.Unlock()
	slices.SortFunc(backs, func(a, b *backend) int { return strings.Compare(a.addr, b.addr) })
	info := Info{
		Replicas:        p.replicas(),
		VNodes:          p.cfg.VNodes,
		Migrating:       p.next.Load() != nil,
		RoutedOps:       p.routed.Load(),
		HedgesFired:     p.hedges.Load(),
		HedgeWins:       p.hedgeWins.Load(),
		HedgesCancelled: p.hedgesCancelled.Load(),
		ReadRetries:     p.readRetries.Load(),
		DegradedWrites:  p.degraded.Load(),
		KeysMoved:       p.keysMoved.Load(),
		ShedsObserved:   p.shedObserved.Load(),
		DeadlineRejects: p.deadlineRejects.Load(),
	}
	for _, b := range backs {
		info.Nodes = append(info.Nodes, NodeInfo{
			Addr:         b.addr,
			Scheme:       *b.scheme.Load(),
			State:        stateName(b.state.Load()),
			Inflight:     b.inflight.Load(),
			BreakerTrips: b.trips.Load(),
			DialFailures: b.dialErrs.Load(),
			HedgeDelayUs: b.hedgeDelay().Microseconds(),
		})
	}
	return info
}

// admin runs an operator verb — CLUSTER_INFO, DRAIN or a topology
// change — on a goroutine of its own, the proxy's one spawn per op and
// its documented slow path: DRAIN stops and redials every lane, a
// topology change walks the whole key space, and both hold the topology
// lock that CLUSTER_INFO's snapshot takes, so none may run on the
// connection reader.
func (p *Proxy) admin(op uint8, addr string, deadline time.Time, ca *call) {
	// A budget on an admin op becomes the rebalance context's deadline:
	// AddBackend/DrainBackend/RemoveBackend check it between keys, so a
	// caller-bounded drain stops copying when the caller gives up.
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	var rep any
	var err error
	switch op {
	case kvstore.OpClusterInfo:
		rep = p.Snapshot()
	case kvstore.OpDrain:
		rep, err = p.drain()
	case kvstore.OpClusterAdd:
		rep, err = p.AddBackend(ctx, addr)
	case kvstore.OpClusterDrain:
		rep, err = p.DrainBackend(ctx, addr)
	case kvstore.OpClusterRemove:
		rep, err = p.RemoveBackend(ctx, addr)
	}
	if err != nil {
		ca.fail(err)
		return
	}
	p.respondJSON(ca, rep)
}

func (p *Proxy) respondJSON(ca *call, v any) {
	js, err := json.Marshal(v)
	if err != nil {
		ca.fail(err)
		return
	}
	buf := getBuf()
	out, fs := kvstore.BeginFrame((*buf)[:0])
	*buf = kvstore.EndFrame(append(append(out, kvstore.StatusOK), js...), fs)
	ca.complete(buf)
}
