package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// stubProxy assembles a Proxy whose backends never dial: every lane
// submission is intercepted by the testSubmit seam and answered inline
// with a canned StatusOK frame. This isolates the dispatch state
// machines (getOp/writeOp, call and frame pooling) from the network so
// AllocsPerRun measures only the proxy's own fast path.
func stubProxy(nback int) *Proxy {
	p := &Proxy{
		cfg:    Config{Replicas: 2, Depth: 128},
		byAddr: map[string]*backend{},
	}
	addrs := make([]string, nback)
	backs := make([]*backend, nback)
	for i := range backs {
		addrs[i] = fmt.Sprintf("stub-%d", i)
		b := newBackend(p, addrs[i], nil)
		b.state.Store(stateHealthy)
		b.testSubmit = func(fr *wireBuf, ca *call) bool {
			rb := getBuf()
			*rb = append((*rb)[:0], 9, 0, 0, 0, kvstore.StatusOK)
			*rb = kvstore.AppendU64(*rb, 424242)
			ca.complete(rb)
			return true
		}
		p.byAddr[addrs[i]] = b
		backs[i] = b
	}
	p.topo.Store(&topology{ring: BuildRing(addrs, DefaultVNodes), backs: backs})
	return p
}

// waiter owns a test's client calls in place of a connection's burst:
// each settle sends one token. A channel fits in an interface without
// allocating, so one waiter serves every op of the allocation guard.
type waiter chan struct{}

func (w waiter) backendDone(*call) { w <- struct{}{} }

// runOp dispatches req on a fresh call owned by w, writes the lanes it
// queued on and waits for it to settle, as a connection's reader does.
// The caller putCalls the result.
func runOp(p *Proxy, w waiter, req []byte) *call {
	ca := getCall(w)
	var ls laneSet
	p.dispatch(req, ca, &ls)
	ls.flush()
	<-w
	return ca
}

// TestProxySteadyStateAllocs is the tentpole's zero-allocation guard:
// once the pools are warm, a proxied GET and a proxied PUT must not
// allocate at all — no goroutines, no call structs, no frames, no
// response buffers.
func TestProxySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	p := stubProxy(3)
	w := make(waiter, 1)
	getReq := kvstore.AppendU64([]byte{kvstore.OpGet}, 7)
	putReq := kvstore.AppendU64(kvstore.AppendU64([]byte{kvstore.OpPut}, 7), 70)

	// Warm every pool (calls, ops, wire frames, response buffers) before
	// measuring; pool misses on the first iterations are expected.
	for i := 0; i < 64; i++ {
		putCall(runOp(p, w, getReq))
		putCall(runOp(p, w, putReq))
	}

	if n := testing.AllocsPerRun(2000, func() {
		putCall(runOp(p, w, getReq))
	}); n != 0 {
		t.Errorf("steady-state proxied GET allocates %.3f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		putCall(runOp(p, w, putReq))
	}); n != 0 {
		t.Errorf("steady-state proxied PUT allocates %.3f objects/op, want 0", n)
	}
}

// TestProxySteadyStateResults sanity-checks the stubbed fast path the
// alloc guard rides on: responses really are the canned backend frames,
// routed and pooled correctly.
func TestProxySteadyStateResults(t *testing.T) {
	p := stubProxy(3)
	w := make(waiter, 1)
	getReq := kvstore.AppendU64([]byte{kvstore.OpGet}, 7)
	for i := 0; i < 100; i++ {
		ca := runOp(p, w, getReq)
		if ca.err != nil {
			t.Fatalf("stubbed GET err: %v", ca.err)
		}
		if ca.resp[0] != kvstore.StatusOK {
			t.Fatalf("stubbed GET status = %d", ca.resp[0])
		}
		if v, ok := kvstore.PayloadU64(ca.resp, 1); !ok || v != 424242 {
			t.Fatalf("stubbed GET value = %d, %v", v, ok)
		}
		putCall(ca)
	}
}

// TestProxyGoroutineBaseline is the goroutine-leak regression test: a
// mixed workload pushed through topology churn (ADD, DRAIN, REMOVE)
// must leave the process at its per-lane/per-conn goroutine baseline —
// steady-state ops and retired topologies may not park goroutines.
func TestProxyGoroutineBaseline(t *testing.T) {
	p, _, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)
	if _, err := cl.Put(ctx, 1, 10); err != nil {
		t.Fatal(err)
	}

	// Baseline: cluster up, one idle client connected, pools warm.
	runtime.GC()
	base := runtime.NumGoroutine()

	// Mixed workload across several client connections...
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcl, err := kvstore.Dial(addr, kvstore.WithReadTimeout(30*time.Second), kvstore.WithRetries(3))
			if err != nil {
				t.Errorf("churn dial: %v", err)
				return
			}
			defer wcl.Close() // before the baseline re-check, unlike t.Cleanup
			for i := 0; i < 400; i++ {
				k := uint64((w+1)*1000 + i) // disjoint from the sentinel key 1
				if _, err := wcl.Put(ctx, k, k*3); err != nil {
					t.Errorf("churn Put: %v", err)
					return
				}
				if _, _, err := wcl.Get(ctx, k); err != nil {
					t.Errorf("churn Get: %v", err)
					return
				}
				if i%10 == 0 {
					if _, err := wcl.Del(ctx, k); err != nil {
						t.Errorf("churn Del: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// ...while the topology churns underneath it: a node joins, drains
	// back out, and a second join is torn down via the removal path.
	extra := startKV(t, "orcgc", "")
	if _, err := p.AddBackend(ctx, extra.addr); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DrainBackend(ctx, extra.addr); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddBackend(ctx, extra.addr); err != nil {
		t.Fatal(err)
	}
	extra.kill(t)
	// The removal path skips the dead node as a copy source only once
	// the proxy has demoted it. Idle lanes notice a peer death on their
	// next submission, so keep a trickle of writes flowing until the
	// dead node's failures get it suspected out of the read set.
	p.tmu.Lock()
	eb := p.byAddr[extra.addr]
	p.tmu.Unlock()
	for i, deadline := uint64(0), time.Now().Add(10*time.Second); eb.readEligible(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("killed backend never left the read set")
		}
		cl.Put(ctx, 5000+i%64, i) // best-effort probe; failures are the point
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := p.RemoveBackend(ctx, extra.addr); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// The workload clients' own goroutines and the retired backend's
	// lanes need a moment to unwind; poll until we are back at (or
	// below) baseline plus a small tolerance for the test server's
	// still-closing accept loops.
	const tolerance = 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= base+tolerance {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines after churn = %d, baseline %d (+%d allowed)\n%s",
				now, base, tolerance, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The data must have survived the churn.
	if v, ok, err := cl.Get(ctx, 1); err != nil || !ok || v != 10 {
		t.Fatalf("Get after churn = %d, %v, %v", v, ok, err)
	}
}

// proxyOpGoroutines counts the goroutines parked inside the proxy's op
// handling or a blocking backend round trip, read from a full stack
// dump (NumGoroutine deltas also see other tests' goroutines exiting).
func proxyOpGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("cluster.(*Proxy)")) || bytes.Contains(g, []byte("(*backend).roundTrip")) {
			n++
		}
	}
	return n
}

// SCAN and STATS are scattered from the dispatching goroutine and
// merged by whichever completion settles the last leg: with every leg
// parked at its backend, no goroutine may be waiting on them. Once the
// legs answer, the horizon merge and the STATS aggregate come out of
// the completions.
func TestProxyScanStatsNoGoroutine(t *testing.T) {
	p := stubProxy(2)
	backs := p.topo.Load().backs
	type leg struct {
		b  int
		op uint8
		ca *call
	}
	parked := make(chan leg, 4) // one per leg: two SCAN, two STATS
	for i, b := range backs {
		b.testSubmit = func(fr *wireBuf, ca *call) bool {
			parked <- leg{i, fr.b[4], ca}
			return true
		}
	}
	scanW, statsW := make(waiter, 1), make(waiter, 1)
	scan, stats := getCall(scanW), getCall(statsW)
	var ls laneSet
	p.dispatch(scanReq(nil, 1, 3), scan, &ls)
	p.dispatch([]byte{kvstore.OpStats}, stats, &ls)
	if n := proxyOpGoroutines(); n != 0 {
		t.Errorf("%d goroutines wait on a dispatched SCAN and STATS, want 0", n)
	}

	answer := func(ca *call, payload []byte) {
		rb := getBuf()
		*rb = kvstore.AppendFrame((*rb)[:0], payload)
		ca.complete(rb)
	}
	scanLegs := [][]uint64{{1, 3, 5}, {2, 3, 4, 6, 7}} // backend 0 filled its window of 3
	schemes := []string{"hp", "ebr"}
	for range 4 {
		var l leg
		select {
		case l = <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("a SCAN or STATS leg was never submitted")
		}
		switch l.op {
		case kvstore.OpScan:
			out := kvstore.AppendU32([]byte{kvstore.StatusOK}, uint32(len(scanLegs[l.b])))
			for _, k := range scanLegs[l.b] {
				out = kvstore.AppendU64(kvstore.AppendU64(out, k), 10*k)
			}
			answer(l.ca, out)
		case kvstore.OpStats:
			js, _ := json.Marshal(kvstore.Stats{Scheme: schemes[l.b], Shards: 4, Live: int64(10 + l.b), MaxLive: int64(20 + l.b), Baseline: 3})
			answer(l.ca, append([]byte{kvstore.StatusOK}, js...))
		default:
			t.Fatalf("unexpected op %d submitted", l.op)
		}
	}

	<-scanW
	if scan.err != nil {
		t.Fatalf("SCAN: %v", scan.err)
	}
	var keys []uint64
	n, _ := kvstore.PayloadU32(scan.resp, 1)
	for off := 5; off < 5+16*int(n); off += 16 {
		k, _ := kvstore.PayloadU64(scan.resp, off)
		v, _ := kvstore.PayloadU64(scan.resp, off+8)
		if v != 10*k {
			t.Errorf("SCAN key %d carries value %d", k, v)
		}
		keys = append(keys, k)
	}
	if !slices.Equal(keys, []uint64{1, 2, 3}) {
		t.Errorf("merged SCAN keys = %v, want [1 2 3]", keys)
	}
	putCall(scan)

	<-statsW
	if stats.err != nil {
		t.Fatalf("STATS: %v", stats.err)
	}
	var st kvstore.Stats
	if err := json.Unmarshal(stats.resp[1:], &st); err != nil {
		t.Fatal(err)
	}
	want := kvstore.Stats{Scheme: "cluster(hp+ebr)", Shards: 8, Live: 21, MaxLive: 41, Baseline: 6}
	if st.Scheme != want.Scheme || st.Shards != want.Shards || st.Live != want.Live || st.MaxLive != want.MaxLive || st.Baseline != want.Baseline {
		t.Errorf("STATS aggregate = %+v, want %+v", st, want)
	}
	putCall(stats)
}
