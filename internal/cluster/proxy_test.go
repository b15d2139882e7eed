package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// testBackend is one in-process kvserver a proxy test can kill and
// restart on a stable address.
type testBackend struct {
	addr string
	st   *kvstore.Store
	srv  *kvstore.Server
	done chan error
}

func startKV(t *testing.T, scheme, addr string) *testBackend {
	t.Helper()
	st, err := kvstore.New(kvstore.Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b := &testBackend{addr: ln.Addr().String(), st: st, srv: kvstore.NewServer(st), done: make(chan error, 1)}
	go func() { b.done <- b.srv.Serve(ln) }()
	return b
}

func (b *testBackend) kill(t *testing.T) {
	t.Helper()
	b.srv.Shutdown()
	if err := <-b.done; err != nil {
		t.Errorf("backend %s serve: %v", b.addr, err)
	}
}

func startCluster(t *testing.T, schemes []string, replicas int) (*Proxy, []*testBackend, string) {
	t.Helper()
	return startClusterWith(t, schemes, Config{Replicas: replicas, Depth: 128})
}

// startClusterWith is startCluster with the proxy's Config given; its
// Backends field is filled in with the started servers.
func startClusterWith(t *testing.T, schemes []string, cfg Config) (*Proxy, []*testBackend, string) {
	t.Helper()
	backs := make([]*testBackend, len(schemes))
	cfg.Backends = make([]string, len(schemes))
	for i, s := range schemes {
		backs[i] = startKV(t, s, "")
		cfg.Backends[i] = backs[i].addr
	}
	p, addr := startProxy(t, cfg)
	return p, backs, addr
}

// startProxy serves a proxy over cfg.Backends on a loopback port once
// every backend is ready, and shuts it down when the test ends.
func startProxy(t *testing.T, cfg Config) (*Proxy, string) {
	t.Helper()
	p := New(cfg)
	if err := p.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(ln) }()
	t.Cleanup(func() {
		p.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return p, ln.Addr().String()
}

var ctx = context.Background()

func proxyClient(t *testing.T, addr string) *kvstore.Client {
	t.Helper()
	cl, err := kvstore.Dial(addr, kvstore.WithReadTimeout(30*time.Second), kvstore.WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func clusterInfo(t *testing.T, cl *kvstore.Client) Info {
	t.Helper()
	raw, err := cl.ClusterInfo(ctx)
	if err != nil {
		t.Fatalf("CLUSTER_INFO: %v", err)
	}
	var info Info
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatalf("CLUSTER_INFO decode: %v", err)
	}
	return info
}

func waitAllHealthy(t *testing.T, cl *kvstore.Client, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := clusterInfo(t, cl)
		healthy := 0
		for _, nd := range info.Nodes {
			if nd.State == "healthy" {
				healthy++
			}
		}
		if healthy == n && len(info.Nodes) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %d healthy nodes: %+v", n, info.Nodes)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Every op a kvstore client can issue works unchanged through the
// proxy, across backends running three different reclamation schemes.
func TestProxyBasicOps(t *testing.T) {
	_, _, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)

	if ins, err := cl.Put(ctx, 42, 1000); err != nil || !ins {
		t.Fatalf("put = %v, %v", ins, err)
	}
	if ins, err := cl.Put(ctx, 42, 2000); err != nil || ins {
		t.Fatalf("overwrite put = %v, %v (want update)", ins, err)
	}
	if v, ok, err := cl.Get(ctx, 42); err != nil || !ok || v != 2000 {
		t.Fatalf("get = %d, %v, %v", v, ok, err)
	}
	if _, ok, _ := cl.Get(ctx, 43); ok {
		t.Fatal("get on absent key found something")
	}
	if found, err := cl.Del(ctx, 42); err != nil || !found {
		t.Fatalf("del = %v, %v", found, err)
	}
	if found, _ := cl.Del(ctx, 42); found {
		t.Fatal("double del found the key")
	}

	for k := uint64(100); k < 150; k++ {
		if _, err := cl.Put(ctx, k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := cl.Scan(ctx, 100, 25)
	if err != nil || len(pairs) != 50 {
		t.Fatalf("scan returned %d pairs (err %v), want 25", len(pairs)/2, err)
	}
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i+1] != pairs[i]*3 {
			t.Fatalf("scan pair %d→%d", pairs[i], pairs[i+1])
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Scheme != "cluster(orcgc+hp+ebr)" {
		t.Fatalf("aggregate scheme = %q", st.Scheme)
	}
	if st.Live <= 0 {
		t.Fatalf("aggregate live = %d", st.Live)
	}

	info := clusterInfo(t, cl)
	if len(info.Nodes) != 3 || info.Replicas != 2 {
		t.Fatalf("info = %+v", info)
	}
	for _, nd := range info.Nodes {
		if nd.State != "healthy" {
			t.Fatalf("node %s is %s", nd.Addr, nd.State)
		}
	}
}

// With R=2, every write is acked only once it is on every read-eligible
// replica, so killing any single backend loses nothing: every acked key
// stays readable and new writes keep succeeding.
func TestProxyFailoverKill(t *testing.T) {
	_, backs, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)

	const keys = 500
	for k := uint64(1); k <= keys; k++ {
		if _, err := cl.Put(ctx, k, k^0xABCD); err != nil {
			t.Fatalf("put(%d): %v", k, err)
		}
	}
	backs[1].kill(t)

	for k := uint64(1); k <= keys; k++ {
		v, ok, err := cl.Get(ctx, k)
		if err != nil || !ok || v != k^0xABCD {
			t.Fatalf("get(%d) after kill = (%d, %v, %v)", k, v, ok, err)
		}
	}
	for k := uint64(keys + 1); k <= keys+100; k++ {
		if _, err := cl.Put(ctx, k, k); err != nil {
			t.Fatalf("put(%d) after kill: %v", k, err)
		}
		if v, ok, err := cl.Get(ctx, k); err != nil || !ok || v != k {
			t.Fatalf("get(%d) after kill = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// A backend that restarts empty is resynced from its peers before it
// serves reads again: after the rejoin completes, killing a *different*
// backend leaves every acked key readable — including keys whose only
// other replica was the one that died first.
func TestProxyKillRestartResync(t *testing.T) {
	_, backs, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)

	const keys = 400
	for k := uint64(1); k <= keys; k++ {
		if _, err := cl.Put(ctx, k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	downAddr := backs[0].addr
	backs[0].kill(t)

	// Writes acked while node 0 is down land only on the survivors.
	for k := uint64(keys + 1); k <= 2*keys; k++ {
		if _, err := cl.Put(ctx, k, k*7); err != nil {
			t.Fatalf("put(%d) during outage: %v", k, err)
		}
	}

	// Restart node 0 empty on the same address; the proxy must resync it.
	backs[0] = startKV(t, "orcgc", downAddr)
	waitAllHealthy(t, cl, 3, 30*time.Second)

	// Now kill a different node: reads for keys replicated on
	// {node0, node1} fall to the resynced node 0.
	backs[1].kill(t)
	for k := uint64(1); k <= 2*keys; k++ {
		v, ok, err := cl.Get(ctx, k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("get(%d) after restart+kill = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// Paginated scans through the proxy enumerate the merged keyspace
// exactly once even though every backend holds a different subset.
func TestProxyScanPagination(t *testing.T) {
	_, _, addr := startCluster(t, []string{"orcgc", "hp", "ebr"}, 2)
	cl := proxyClient(t, addr)

	const keys = 3000
	for k := uint64(1); k <= keys; k++ {
		if _, err := cl.Put(ctx, k, k+5); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]uint64{}
	cursor := uint64(1)
	for {
		pairs, err := cl.Scan(ctx, cursor, 512)
		if err != nil {
			t.Fatalf("scan from %d: %v", cursor, err)
		}
		if len(pairs) == 0 {
			break
		}
		for i := 0; i < len(pairs); i += 2 {
			if _, dup := seen[pairs[i]]; dup {
				t.Fatalf("key %d scanned twice", pairs[i])
			}
			seen[pairs[i]] = pairs[i+1]
		}
		cursor = pairs[len(pairs)-2] + 1
	}
	if len(seen) != keys {
		t.Fatalf("scan enumerated %d keys, want %d", len(seen), keys)
	}
	for k, v := range seen {
		if v != k+5 {
			t.Fatalf("key %d has value %d", k, v)
		}
	}
}

// scanLeg builds a settled SCAN leg answering keys (value = key+100).
func scanLeg(keys ...uint64) *call {
	out := kvstore.AppendU32([]byte{kvstore.StatusOK}, uint32(len(keys)))
	for _, k := range keys {
		out = kvstore.AppendU64(kvstore.AppendU64(out, k), k+100)
	}
	return &call{resp: out}
}

// mergeScan's edge cases: the horizon, the limit cut (which must still
// report more), cross-leg duplicates, and malformed or failed legs.
func TestMergeScan(t *testing.T) {
	overrun := scanLeg(9)
	overrun.resp[1] = 3 // claims three pairs, carries one
	cases := []struct {
		name   string
		limit  uint32
		legs   []*call
		want   []uint64
		more   bool
		failed int
	}{
		{"limit 0", 0, []*call{scanLeg(), scanLeg()}, nil, true, 0},
		{"short windows", 3, []*call{scanLeg(1), scanLeg(2)}, []uint64{1, 2}, false, 0},
		{"horizon", 3, []*call{scanLeg(1, 2, 9), scanLeg(3, 4)}, []uint64{1, 2, 3}, true, 0},
		{"limit cut, no full leg", 3, []*call{scanLeg(1, 3), scanLeg(2, 4)}, []uint64{1, 2, 3}, true, 0},
		{"duplicates", 4, []*call{scanLeg(1, 3, 5), scanLeg(1, 3, 6)}, []uint64{1, 3, 5, 6}, false, 0},
		{"pair count overruns payload", 3, []*call{overrun, scanLeg(7)}, []uint64{7}, false, 1},
		{"refused leg", 3, []*call{{resp: []byte{kvstore.StatusOverloaded}}, scanLeg(7)}, []uint64{7}, false, 1},
		{"every leg failed", 3, []*call{{err: errBackendDown}, {err: errBackendDown}}, nil, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			merged, more, failed := mergeScan(tc.legs, tc.limit, nil)
			var keys []uint64
			for _, e := range merged {
				if e.v != e.k+100 {
					t.Errorf("key %d carries value %d", e.k, e.v)
				}
				keys = append(keys, e.k)
			}
			if !slices.Equal(keys, tc.want) || more != tc.more || failed != tc.failed {
				t.Errorf("mergeScan = %v, more %v, failed %d; want %v, more %v, failed %d",
					keys, more, failed, tc.want, tc.more, tc.failed)
			}
		})
	}
}

// The rebalance walk crosses windows even when no source fills one:
// two sources of 600 keys each make a 1 200-key union that the merge
// cuts at MaxScanLimit, and the walk must resume after the cut rather
// than stop there.
func TestForEachKeyResumesAfterLimitCut(t *testing.T) {
	p := stubProxy(2)
	backs := p.topo.Load().backs
	for i, b := range backs {
		b.testSubmit = func(fr *wireBuf, ca *call) bool {
			from, _ := kvstore.PayloadU64(fr.b[4:], 1)
			limit, _ := kvstore.PayloadU32(fr.b[4:], 9)
			var keys []uint64
			for k := uint64(i + 1); k <= 1200 && uint32(len(keys)) < limit; k += 2 {
				if k >= from {
					keys = append(keys, k)
				}
			}
			out := kvstore.AppendU32([]byte{kvstore.StatusOK}, uint32(len(keys)))
			for _, k := range keys {
				out = kvstore.AppendU64(kvstore.AppendU64(out, k), k)
			}
			rb := getBuf()
			*rb = kvstore.AppendFrame((*rb)[:0], out)
			ca.complete(rb)
			return true
		}
	}
	var visited []uint64
	if err := p.forEachKey(backs, func(k uint64) error {
		visited = append(visited, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 1200 || !slices.IsSorted(visited) || visited[0] != 1 || visited[1199] != 1200 {
		t.Fatalf("walk visited %d keys (first %v), want 1..1200 once each", len(visited), visited[:min(len(visited), 4)])
	}
}

// A SCAN of limit 0 answers StatusOK with zero pairs and never reaches
// a backend.
func TestProxyScanLimitZero(t *testing.T) {
	p := stubProxy(2)
	for _, b := range p.topo.Load().backs {
		b.testSubmit = func(*wireBuf, *call) bool {
			t.Error("a limit-0 SCAN reached a backend")
			return false
		}
	}
	ca := runOp(p, make(waiter, 1), scanReq(nil, 1, 0))
	if ca.err != nil || !slices.Equal(ca.resp, []byte{kvstore.StatusOK, 0, 0, 0, 0}) {
		t.Fatalf("limit-0 SCAN = %v, %v", ca.resp, ca.err)
	}
	putCall(ca)
}

// Live topology changes: a joined node syncs its share before entering
// the read path, and a drained node's keys are handed off before it
// leaves, so clients never observe a missing key either way.
func TestProxyTopologyAddDrain(t *testing.T) {
	_, _, addr := startCluster(t, []string{"orcgc", "hp"}, 2)
	cl := proxyClient(t, addr)

	const keys = 400
	for k := uint64(1); k <= keys; k++ {
		if _, err := cl.Put(ctx, k, k+9); err != nil {
			t.Fatal(err)
		}
	}

	third := startKV(t, "ebr", "")
	raw, err := cl.ClusterAdd(ctx, third.addr)
	if err != nil {
		t.Fatalf("CLUSTER_ADD: %v", err)
	}
	var rep RebalanceReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.KeysMoved == 0 {
		t.Error("join moved zero keys into the new node")
	}
	waitAllHealthy(t, cl, 3, 30*time.Second)
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := cl.Get(ctx, k); err != nil || !ok || v != k+9 {
			t.Fatalf("get(%d) after add = (%d, %v, %v)", k, v, ok, err)
		}
	}

	info := clusterInfo(t, cl)
	drainAddr := info.Nodes[0].Addr
	raw, err = cl.ClusterDrain(ctx, drainAddr)
	if err != nil {
		t.Fatalf("CLUSTER_DRAIN: %v", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	info = clusterInfo(t, cl)
	if len(info.Nodes) != 2 {
		t.Fatalf("after drain, %d nodes remain: %+v", len(info.Nodes), info.Nodes)
	}
	for _, nd := range info.Nodes {
		if nd.Addr == drainAddr {
			t.Fatalf("drained node %s still in topology", drainAddr)
		}
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := cl.Get(ctx, k); err != nil || !ok || v != k+9 {
			t.Fatalf("get(%d) after drain = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// The hedge delay tracks 2×p99 of observed RTTs, clamped to its bounds.
func TestHedgeDelayClamp(t *testing.T) {
	b := newBackend(nil, "x", nil)
	if d := b.hedgeDelay(); d != time.Millisecond {
		t.Fatalf("default hedge delay = %v", d)
	}
	for i := 0; i < 1024; i++ {
		b.observeRTT(5 * time.Microsecond) // tiny RTTs → clamp at floor
	}
	if d := b.hedgeDelay(); d != hedgeMin {
		t.Fatalf("hedge delay after tiny RTTs = %v, want %v", d, hedgeMin)
	}
	for i := 0; i < 4096; i++ {
		b.observeRTT(time.Second) // huge RTTs → clamp at ceiling
	}
	if d := b.hedgeDelay(); d != hedgeMax {
		t.Fatalf("hedge delay after huge RTTs = %v, want %v", d, hedgeMax)
	}
}

// A fresh backend used to keep the 1ms default hedge delay for its
// whole first 512-sample window; now each of the first rttWarmup
// samples re-derives it, so a handful of observations is enough to
// move both the hedge trigger and the p50 budget deduction.
func TestHedgeWarmup(t *testing.T) {
	b := newBackend(nil, "x", nil)
	if d := b.hedgeDelay(); d != time.Millisecond {
		t.Fatalf("default hedge delay = %v", d)
	}
	if rtt := b.netRTT(); rtt != 0 {
		t.Fatalf("p50 estimate before any sample = %v", rtt)
	}
	for i := 0; i < 4; i++ {
		b.observeRTT(4 * time.Millisecond)
	}
	// 2×p99 of a 4ms population is 8ms — far from both clamps and from
	// the 1ms default, proving warm-up re-derivation fired well before
	// sample 512.
	if d := b.hedgeDelay(); d == time.Millisecond || d < 4*time.Millisecond {
		t.Fatalf("hedge delay after 4 warm-up samples = %v, want ≈2×p99 of 4ms", d)
	}
	if rtt := b.netRTT(); rtt <= 0 {
		t.Fatalf("p50 estimate after warm-up samples = %v", rtt)
	}
}

// A budget that cannot survive the proxy hop is refused with
// StatusDeadlineExceeded — by the proxy itself or by the backend the
// remainder was forwarded to — and the op provably does not execute.
func TestProxyBudgetExpiry(t *testing.T) {
	p, _, addr := startCluster(t, []string{"orcgc", "hp"}, 2)
	cl := proxyClient(t, addr)

	// A healthy budget flows through end to end.
	if ins, err := cl.Put(ctx, 77, 770); err != nil || !ins {
		t.Fatalf("Put = %v, %v", ins, err)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	if v, ok, err := cl.Get(dctx, 77); err != nil || !ok || v != 770 {
		t.Fatalf("budgeted Get through proxy = %d, %v, %v", v, ok, err)
	}
	cancel()

	// A 1µs budget is dead on arrival: the PUT must be refused without
	// effect, wherever along the pipeline the expiry is noticed.
	cl.SendPutBudget(78, 780, time.Microsecond)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RecvPut(); !errors.Is(err, kvstore.ErrDeadlineExceeded) {
		t.Fatalf("1µs-budget Put err = %v, want ErrDeadlineExceeded", err)
	}
	if _, ok, err := cl.Get(ctx, 78); err != nil || ok {
		t.Fatalf("expired Put executed through proxy: found=%v err=%v", ok, err)
	}
	cl.SendGetBudget(77, time.Microsecond)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.RecvGet(); !errors.Is(err, kvstore.ErrDeadlineExceeded) {
		t.Fatalf("1µs-budget Get err = %v, want ErrDeadlineExceeded", err)
	}
	if n := p.Snapshot().DeadlineRejects; n == 0 {
		t.Log("expiries were noticed downstream of the proxy (backend-side)")
	}
}
