package cluster

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// stacks returns the goroutine stacks of a full dump that contain substr.
func stacks(substr string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, substr) {
			out = append(out, g)
		}
	}
	return out
}

// TestProxyOneGoroutinePerConn: a proxy client connection runs on one
// goroutine — the reader dispatches, waits for its burst and writes —
// so N idle connections add exactly N goroutines in Proxy.handle,
// counted from a stack dump so that goroutines of earlier tests still
// exiting cannot skew the count.
func TestProxyOneGoroutinePerConn(t *testing.T) {
	const n = 8
	_, _, addr := startCluster(t, []string{"orcgc", "hp"}, 2)
	get := kvstore.AppendFrame(nil, getReqB(nil, 1))
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(get); err != nil {
			t.Fatal(err)
		}
		if _, err := kvstore.ReadFrame(bufio.NewReader(c), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine that handle started names it in its "created by" line.
	if got := len(stacks("cluster.(*Proxy).handle")); got != n {
		t.Fatalf("%d idle connections run %d goroutines, want %d", n, got, n)
	}
}

// A lane runs one goroutine, its receiver: the submitters write what
// they queue, so no lane has a flusher or any other goroutine of its
// own. Lanes of earlier tests' proxies may still be exiting, so the
// count is polled down to this proxy's.
func TestProxyOneGoroutinePerLane(t *testing.T) {
	p, _, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)
	for k := uint64(1); k <= 64; k++ {
		if _, err := cl.Put(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	lanes := 0
	for _, b := range p.topo.Load().backs {
		if b.lane.Load() != nil {
			lanes++
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		gs := stacks("cluster.(*conn).")
		other := 0
		for _, g := range gs {
			if !strings.Contains(g, "cluster.(*conn).recvLoop(") {
				other++
			}
		}
		if len(gs) == lanes && other == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d live lanes run %d goroutines, %d of them not a receiver; want one receiver each", lanes, len(gs), other)
		}
	}
}

// A client that pipelines GETs and never reads its responses stalls
// only its own connection: its reader parks writing to it, and no lane
// receiver ever writes to a client socket, so another client's GET
// through the same backend still answers promptly. The stalled client
// is a net.Pipe, which buffers nothing, so the stall is immediate. One
// backend, so that no hedge to a second one can mask a stuck lane.
func TestProxySlowClientStallsOnlyItself(t *testing.T) {
	p, _, addr := startCluster(t, []string{"orcgc"}, 1)
	b := proxyClient(t, addr)
	if _, err := b.Put(ctx, 1, 10); err != nil {
		t.Fatal(err)
	}

	sc, ac := net.Pipe()
	p.wg.Add(1)
	go p.handle(sc)
	t.Cleanup(func() { ac.Close() }) // before the proxy's Shutdown waits on handle
	const n = 64
	var reqs []byte
	for i := 0; i < n; i++ {
		reqs = kvstore.AppendFrame(reqs, getReqB(nil, 1))
	}
	// The write returns once the reader has taken the whole burst; its
	// answers then park in a write to the pipe that no one reads.
	if _, err := ac.Write(reqs); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(stacks("net.(*pipe).write")) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled client's answers never parked in a write")
		}
	}

	for i := 0; i < 20; i++ {
		start := time.Now()
		gctx, cancel := context.WithTimeout(ctx, time.Second)
		v, ok, err := b.Get(gctx, 1)
		cancel()
		if err != nil || !ok || v != 10 {
			t.Fatalf("Get beside a stalled client = %d, %v, %v after %v", v, ok, err, time.Since(start))
		}
	}

	// The stalled client still gets every answer, in order, once it reads.
	ac.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(ac)
	for i := 0; i < n; i++ {
		resp, err := kvstore.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("stalled client's response %d: %v", i, err)
		}
		if v, ok := kvstore.PayloadU64(resp, 1); resp[0] != kvstore.StatusOK || !ok || v != 10 {
			t.Fatalf("stalled client's response %d = %v", i, resp)
		}
	}
}

// One burst's backend calls settling in reverse order still answer
// the client in request order: the reader writes the burst only once
// its last call settles, head first.
func TestProxyBurstAnswersInRequestOrder(t *testing.T) {
	p := stubProxy(1)
	type leg struct {
		key uint64
		ca  *call
	}
	const n = 16
	parked := make(chan leg, n)
	p.topo.Load().backs[0].testSubmit = func(fr *wireBuf, ca *call) bool {
		key, _ := kvstore.PayloadU64(fr.b[4:], 1)
		parked <- leg{key, ca}
		return true
	}

	sc, cc := net.Pipe()
	defer cc.Close()
	p.wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.handle(sc)
	}()
	var reqs []byte
	for k := uint64(1); k <= n; k++ {
		reqs = kvstore.AppendFrame(reqs, getReqB(nil, k))
	}
	go cc.Write(reqs) // one write: the reader finds every frame whole in one burst

	legs := make([]leg, n)
	for i := range legs {
		select {
		case legs[i] = <-parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d GETs reached the backend in one burst", i, n)
		}
	}
	for i := n - 1; i >= 0; i-- {
		rb := getBuf()
		*rb = kvstore.AppendFrame((*rb)[:0], kvstore.AppendU64([]byte{kvstore.StatusOK}, 10*legs[i].key))
		legs[i].ca.complete(rb)
	}

	cc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(cc)
	for k := uint64(1); k <= n; k++ {
		resp, err := kvstore.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", k, err)
		}
		if v, ok := kvstore.PayloadU64(resp, 1); resp[0] != kvstore.StatusOK || !ok || v != 10*k {
			t.Fatalf("response %d answers %v, want the value of key %d", k, resp, k)
		}
	}
	cc.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handle still running after its client closed")
	}
}
