package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
)

const (
	pipelineDepth = 16 // requests in flight per generator connection
	// refill is how many window slots must be free before the sender
	// writes again, so a flush carries several requests, not one.
	refill        = pipelineDepth / 2
	prefillWindow = 1024
)

// service is one subject of a KV workload: a kvserver, or a kvproxy
// over two kvservers, with its T generator connections.
type service struct {
	subj    string
	binDir  string
	servers []*child
	proxy   *child
	addr    string // what the generator talks to
	conns   []*kvConn
	ctl     *kvstore.Client
	setup   time.Duration
	phases  string // build/spawn/prefill split of setup, for the report
	// one entry per slice
	opsPerS  []float64
	p50, p99 []float64 // µs
	cpuPerOp []float64 // children's CPU µs per completed op
	samples  int       // latency samples in the last slice
}

func (s *service) children() []*child {
	cs := append([]*child(nil), s.servers...)
	if s.proxy != nil {
		cs = append(cs, s.proxy)
	}
	return cs
}

func (s *service) childCPU() time.Duration {
	var d time.Duration
	for _, c := range s.children() {
		d += c.cpu()
	}
	return d
}

// setupService does one complete, independent set-up of subj's
// service, timed from the first build command to the last connection:
// build the binaries into a temp dir, start the children on free
// ports, wait for each to answer, prefill every key.
func setupService(root string, w *workload, subj string, seed uint64, T int) (*service, error) {
	s := &service{subj: subj}
	t0 := time.Now()
	cmds := []string{"kvserver"}
	nservers := 1
	if w.target == targetProxy {
		cmds = append(cmds, "kvproxy")
		nservers = 2
	}
	var err error
	if s.binDir, err = buildBinaries(root, cmds...); err != nil {
		return s, err
	}
	tBuilt := time.Now()

	var addrs []string
	var direct []*kvstore.Client
	defer func() {
		for _, cl := range direct {
			cl.Close()
		}
	}()
	for i := 0; i < nservers; i++ {
		addr, err := freeAddr()
		if err != nil {
			return s, err
		}
		c, err := startChild(fmt.Sprintf("kvserver[%s#%d]", subj, i), filepath.Join(s.binDir, "kvserver"),
			"-addr", addr, "-reclaim", serverScheme(subj))
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, c)
		addrs = append(addrs, addr)
	}
	for i, c := range s.servers {
		cl, err := dialReady(c, addrs[i])
		if err != nil {
			return s, err
		}
		direct = append(direct, cl)
	}
	tUp := time.Now()

	// With two backends at R=2 every key lives on both, so filling
	// each backend directly leaves the cluster consistent, as the
	// proxy assumes of its initial backends.
	errs := make([]error, len(direct))
	var wg sync.WaitGroup
	for i, cl := range direct {
		wg.Add(1)
		go func(i int, cl *kvstore.Client) {
			defer wg.Done()
			errs[i] = prefill(cl, w.keys)
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return s, fmt.Errorf("prefill %s: %w", subj, err)
	}
	tFilled := time.Now()

	s.addr = addrs[0]
	front := s.servers[0]
	if w.target == targetProxy {
		if s.addr, err = freeAddr(); err != nil {
			return s, err
		}
		s.proxy, err = startChild(fmt.Sprintf("kvproxy[%s]", subj), filepath.Join(s.binDir, "kvproxy"),
			"-addr", s.addr, "-backends", strings.Join(addrs, ","), "-replicas", "2")
		if err != nil {
			return s, err
		}
		front = s.proxy
	}
	if s.ctl, err = dialReady(front, s.addr); err != nil {
		return s, err
	}
	for tid := 0; tid < T; tid++ {
		cl, err := kvstore.Dial(s.addr, append(clientOpts, kvstore.WithPipelineDepth(pipelineDepth))...)
		if err != nil {
			return s, fmt.Errorf("dial %s: %w", subj, err)
		}
		s.conns = append(s.conns, &kvConn{cl: cl, g: w.newGen(seed, uint64(tid))})
	}
	s.setup = time.Since(t0)
	s.phases = fmt.Sprintf("build %.2fs, start %.2fs, prefill %.2fs, front+dial %.2fs",
		tBuilt.Sub(t0).Seconds(), tUp.Sub(tBuilt).Seconds(), tFilled.Sub(tUp).Seconds(), time.Since(tFilled).Seconds())
	return s, nil
}

func prefill(cl *kvstore.Client, keys uint64) error {
	pending := 0
	drain := func() error {
		if err := cl.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			if _, err := cl.RecvPut(); err != nil {
				return err
			}
		}
		return nil
	}
	for k := uint64(1); k <= keys; k++ {
		cl.SendPut(k, kvValue(k, 0))
		if pending++; pending == prefillWindow {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// kvConn is one closed-loop generator connection.
type kvConn struct {
	cl   *kvstore.Client
	g    *gen
	puts uint64
	err  error // transport failure; the connection is unusable after it

	// per slice
	ops     uint64
	failed  uint64
	last    time.Time
	samples []uint32
}

type inflight struct {
	kind opKind
	key  uint64
	t0   time.Time
}

// runSlice keeps pipelineDepth requests in flight until deadline and
// checks every reply. The sender refills the window once half of it is
// free; the receiver matches replies to requests in order.
func (c *kvConn) runSlice(deadline time.Time) {
	c.ops, c.failed, c.samples = 0, 0, c.samples[:0]
	if c.err != nil {
		return
	}
	tokens := make(chan struct{}, pipelineDepth)
	for i := 0; i < pipelineDepth; i++ {
		tokens <- struct{}{}
	}
	queue := make(chan inflight, pipelineDepth)
	var dead atomic.Bool
	var recvErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var pairs []uint64
		for f := range queue {
			if recvErr == nil {
				var refused bool
				pairs, refused, recvErr = c.recv(f, pairs)
				if recvErr != nil {
					dead.Store(true)
				} else if refused {
					c.failed++
				} else {
					c.ops++
					c.last = time.Now()
					c.samples = append(c.samples, uint32(c.last.Sub(f.t0)))
				}
			}
			if recvErr != nil {
				c.failed++ // this and every later request is lost with the connection
			}
			tokens <- struct{}{}
		}
	}()

	var sendErr error
	for sendErr == nil && !dead.Load() {
		free := 0
		for ; free < refill; free++ {
			<-tokens
		}
	more:
		for free < pipelineDepth {
			select {
			case <-tokens:
				free++
			default:
				break more
			}
		}
		now := time.Now()
		if now.After(deadline) {
			break
		}
		for ; free > 0; free-- {
			o := c.g.next()
			switch o.kind {
			case opRead:
				c.cl.SendGet(o.key)
			case opInsert:
				c.puts++
				c.cl.SendPut(o.key, kvValue(o.key, c.puts))
			case opRemove:
				c.cl.SendDel(o.key)
			case opScan:
				c.cl.SendScan(o.key, scanLen)
			}
			queue <- inflight{o.kind, o.key, now}
		}
		sendErr = c.cl.Flush()
	}
	close(queue)
	<-done
	if c.err = errors.Join(sendErr, recvErr); c.err != nil && c.failed == 0 {
		c.failed = 1
	}
}

// recv consumes f's reply. refused reports a StatusOverloaded or
// StatusDeadlineExceeded answer; a wrong answer is also counted as
// refused work, any other error is a transport failure.
func (c *kvConn) recv(f inflight, pairs []uint64) (_ []uint64, refused bool, err error) {
	switch f.kind {
	case opRead:
		var val uint64
		var found bool
		if val, found, err = c.cl.RecvGet(); err == nil && found && !kvValueOK(f.key, val) {
			refused = true
		}
	case opInsert:
		_, err = c.cl.RecvPut()
	case opRemove:
		_, err = c.cl.RecvDel()
	case opScan:
		if pairs, err = c.cl.RecvScan(pairs[:0]); err == nil {
			prev := f.key - 1
			for i := 0; i+1 < len(pairs); i += 2 {
				if pairs[i] <= prev || !kvValueOK(pairs[i], pairs[i+1]) {
					refused = true
				}
				prev = pairs[i]
			}
			if len(pairs) > 2*scanLen {
				refused = true
			}
		}
	}
	if errors.Is(err, kvstore.ErrOverloaded) || errors.Is(err, kvstore.ErrDeadlineExceeded) {
		return pairs, true, nil
	}
	return pairs, refused, err
}

// slice drives every connection of s for dur and folds the outcome in.
func (s *service) slice(dur time.Duration, res *result) {
	cpu0 := s.childCPU()
	begin := time.Now()
	deadline := begin.Add(dur)
	var wg sync.WaitGroup
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *kvConn) {
			defer wg.Done()
			c.runSlice(deadline)
		}(c)
	}
	wg.Wait()
	cpu := s.childCPU() - cpu0
	end := begin
	var ops uint64
	var samples []uint32
	for _, c := range s.conns {
		ops += c.ops
		res.attempted += c.ops + c.failed
		res.failed += c.failed
		if c.failed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s: %d ops failed or answered wrongly (%v)", s.subj, c.failed, c.err))
		}
		if c.last.After(end) {
			end = c.last
		}
		samples = append(samples, c.samples...)
	}
	if ops == 0 {
		return
	}
	s.opsPerS = append(s.opsPerS, float64(ops)/end.Sub(begin).Seconds())
	p50, p99 := latencyUs(samples)
	s.p50, s.p99 = append(s.p50, p50), append(s.p99, p99)
	s.cpuPerOp = append(s.cpuPerOp, float64(cpu.Nanoseconds())/1e3/float64(ops))
	s.samples = len(samples)
}

// finish reads the service's own counters, then shuts it down in
// dependency order and turns every unclean exit into a failed check.
func (s *service) finish(res *result) {
	if s.ctl != nil {
		if st, err := s.ctl.Stats(context.Background()); err != nil {
			res.problem("%s: STATS: %v", s.subj, err)
		} else if s.subj == "orc" {
			res.mu.Lock()
			res.metrics["peak_live_objs"] = float64(st.MaxLive)
			res.mu.Unlock()
		}
		if s.proxy != nil {
			s.checkCluster(res)
		}
		s.ctl.Close()
	}
	for _, c := range s.conns {
		c.cl.Close()
	}
	if s.proxy != nil {
		if err := s.proxy.stop(20 * time.Second); err != nil {
			res.problem("%v", err)
		}
	}
	var wg sync.WaitGroup
	for _, c := range s.servers {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			err := c.stop(60 * time.Second)
			var rep kvstore.DrainReport
			if err == nil {
				if err = json.Unmarshal(c.stdout.Bytes(), &rep); err == nil && !rep.LeakOK {
					err = fmt.Errorf("%s: leak_ok false: live %d baseline %d", c.name, rep.Live, rep.Baseline)
				}
			}
			if err != nil {
				res.problem("%v", err)
			}
		}(c)
	}
	wg.Wait()
	if s.binDir != "" {
		removeTemp(s.binDir)
	}
}

func (s *service) checkCluster(res *result) {
	raw, err := s.ctl.ClusterInfo(context.Background())
	var info cluster.Info
	if err == nil {
		err = json.Unmarshal(raw, &info)
	}
	if err != nil {
		res.problem("%s: CLUSTER_INFO: %v", s.subj, err)
		return
	}
	for _, n := range info.Nodes {
		if n.State != "healthy" {
			res.problem("%s: backend %s is %s", s.subj, n.Addr, n.State)
		}
	}
	if len(info.Nodes) != 2 {
		res.problem("%s: %d backends in CLUSTER_INFO, want 2", s.subj, len(info.Nodes))
	}
	if info.DegradedWrites != 0 {
		res.problem("%s: %d degraded writes", s.subj, info.DegradedWrites)
	}
	if s.subj == "orc" {
		res.note("cluster: routed_ops %d  hedges_fired %d  hedge_wins %d  read_retries %d  degraded_writes %d",
			info.RoutedOps, info.HedgesFired, info.HedgeWins, info.ReadRetries, info.DegradedWrites)
	}
}

// runKV measures a service workload. Each subject is set up once as a
// whole service; their slices then interleave round-robin.
func runKV(w *workload, seed uint64, seconds float64, T int) *result {
	res := newResult()
	root, err := moduleRoot()
	if err != nil {
		res.problem("%v", err)
		return res
	}
	var svcs []*service
	defer func() {
		var wg sync.WaitGroup
		for _, s := range svcs {
			wg.Add(1)
			go func(s *service) {
				defer wg.Done()
				s.finish(res)
			}(s)
		}
		wg.Wait()
	}()
	var setups []float64
	for _, subj := range subjects {
		s, err := setupService(root, w, subj, seed, T)
		svcs = append(svcs, s)
		if err != nil {
			res.problem("set-up: %v", err)
			return res
		}
		setups = append(setups, s.setup.Seconds())
		res.note("set-up %-4s %.3fs (%s)", subj, s.setup.Seconds(), s.phases)
	}

	rounds, dur := slicing(seconds)
	self0 := selfCPU()
	var child0 time.Duration
	for _, s := range svcs {
		child0 += s.childCPU()
	}
	for round := 0; round < rounds; round++ {
		for _, s := range svcs {
			s.slice(dur, res)
		}
	}
	self := selfCPU() - self0
	childCPU := -child0
	for _, s := range svcs {
		childCPU += s.childCPU()
	}

	res.metrics["setup_s"] = median(setups)
	for _, s := range svcs {
		res.metrics[opsMetric[s.subj]] = betterHalf(s.opsPerS, true)
	}
	orc := svcs[0]
	res.metrics["p50_us"] = betterHalf(orc.p50, false)
	res.metrics["p99_us"] = betterHalf(orc.p99, false)
	res.metrics["server_cpu_us_per_op"] = betterHalf(orc.cpuPerOp, false)
	if total := self + childCPU; total > 0 {
		res.note("gen.cpu_share %.3f (benchmark process CPU / all CPU over the slices)", float64(self)/float64(total))
	}
	res.note("latency: %d samples in the last orc slice (every op timed), %d connections x depth %d, %d slices of %v per subject",
		orc.samples, T, pipelineDepth, rounds, dur)
	return res
}
