// kvload drives a kvserver with a closed-loop mixed workload and
// reports throughput plus an HDR-style latency distribution.
//
//	kvload -addr 127.0.0.1:7070 -conns 8 -pipeline 16 -duration 5s \
//	       -dist zipfian -theta 0.99 -keys 100000 -mix get=50,put=45,del=4,scan=1
//	kvload -conns 16 -budget 250ms     # per-op wire execution budget
//
// With -budget > 0 every op carries the budget on the wire; a server
// that refuses an op with StatusOverloaded or StatusDeadlineExceeded
// (admission control / the budget expiring in its queue) is counted in
// the shed/expired columns instead of as an error, and refusals never
// pollute the latency distribution.
//
// Each connection keeps -pipeline requests in flight, and latency is
// measured from the send.
//
// The run ends in one summary line on stdout, led by the server's
// scheme (fetched via STATS). Every connection records into one shared
// obs.Hist; only post-warmup, accepted ops count toward throughput and
// the percentiles. With -drain the run then sends DRAIN, and kvload
// exits non-zero if DRAIN fails or its leak check does.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

type mix struct {
	get, put, del, scan int // cumulative thresholds out of 100
}

func parseMix(s string) (mix, error) {
	w := map[string]int{"get": 0, "put": 0, "del": 0, "scan": 0}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return mix{}, fmt.Errorf("bad mix element %q", part)
		}
		n, err := strconv.Atoi(kv[1])
		if _, known := w[kv[0]]; err != nil || !known || n < 0 {
			return mix{}, fmt.Errorf("bad mix element %q", part)
		}
		w[kv[0]] = n
	}
	total := w["get"] + w["put"] + w["del"] + w["scan"]
	if total != 100 {
		return mix{}, fmt.Errorf("mix weights sum to %d, want 100", total)
	}
	return mix{
		get:  w["get"],
		put:  w["get"] + w["put"],
		del:  w["get"] + w["put"] + w["del"],
		scan: 100,
	}, nil
}

type keyGen interface{ next() uint64 }

// inflight rides the pipeline between sender and receiver halves of one
// connection: which Recv* to call and when the op was sent.
type inflight struct {
	op   uint8
	sent time.Time
}

type connResult struct {
	ops     uint64
	errs    uint64
	shed    uint64 // ops refused with StatusOverloaded
	expired uint64 // ops refused with StatusDeadlineExceeded
}

// runConn drives one connection until deadline. Sends and receives run
// in separate goroutines (the client's pipelining contract), coupled by
// the inflight queue. Post-warmup latencies go to hist, shared by every
// connection.
func runConn(addr string, opts []kvstore.Option, hist *obs.Hist, seed int64, deadline time.Time, warmupUntil time.Time,
	m mix, dist string, theta float64, keys uint64, scanLen uint32,
	pipeline int, budget time.Duration) (connResult, error) {

	cl, err := kvstore.Dial(addr, opts...)
	if err != nil {
		return connResult{}, err
	}
	defer cl.Close()

	r := rand.New(rand.NewSource(seed))
	var gen keyGen
	if dist == "zipfian" {
		gen = newZipf(r, keys, theta)
	} else {
		gen = &uniformGen{n: keys, r: r}
	}

	queue := make(chan inflight, 4096)
	var res connResult
	var recvErr error // written by the receiver before failed.Store
	var failed atomic.Bool
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for f := range queue {
			var err error
			switch f.op {
			case kvstore.OpGet:
				_, _, err = cl.RecvGet()
			case kvstore.OpPut:
				_, err = cl.RecvPut()
			case kvstore.OpDel:
				_, err = cl.RecvDel()
			case kvstore.OpScan:
				_, err = cl.RecvScan(nil)
			}
			if err != nil {
				// The refusal statuses are not failures: the server shed
				// the op before executing it. Count them apart and keep
				// them out of the latency distribution.
				if errors.Is(err, kvstore.ErrOverloaded) {
					res.shed++
					continue
				}
				if errors.Is(err, kvstore.ErrDeadlineExceeded) {
					res.expired++
					continue
				}
				res.errs++
				recvErr = err
				failed.Store(true)
				return
			}
			res.ops++
			if now := time.Now(); now.After(warmupUntil) {
				hist.Observe(uint64(now.Sub(f.sent)))
			}
		}
	}()

	send := func() {
		now := time.Now()
		k := gen.next()
		p := r.Intn(100)
		var op uint8
		switch {
		case p < m.get:
			op = kvstore.OpGet
			cl.SendGetBudget(k, budget)
		case p < m.put:
			op = kvstore.OpPut
			cl.SendPutBudget(k, k^uint64(now.UnixNano()), budget)
		case p < m.del:
			op = kvstore.OpDel
			cl.SendDelBudget(k, budget)
		default:
			op = kvstore.OpScan
			cl.SendScanBudget(k, scanLen, budget)
		}
		queue <- inflight{op: op, sent: now}
	}

	// Keep `pipeline` requests in flight.
	sent := 0
	for time.Now().Before(deadline) && !failed.Load() {
		for sent < pipeline {
			send()
			sent++
		}
		cl.Flush()
		// Wait for the queue to drain below the window before
		// refilling: receiver consumes as responses arrive.
		for len(queue) >= pipeline && !failed.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		sent = len(queue)
	}
	cl.CloseWrite()
	close(queue)
	rwg.Wait()
	return res, recvErr
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address, or a comma-separated list round-robined across -conns")
	conns := flag.Int("conns", 8, "concurrent connections")
	pipeline := flag.Int("pipeline", 16, "in-flight requests per conn")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	warmup := flag.Duration("warmup", time.Second, "lead-in whose latencies are discarded")
	dist := flag.String("dist", "zipfian", "key distribution: zipfian|uniform")
	theta := flag.Float64("theta", 0.99, "zipfian exponent (YCSB default 0.99)")
	keys := flag.Uint64("keys", 100000, "keyspace size")
	mixFlag := flag.String("mix", "get=50,put=45,del=4,scan=1", "op mix, weights summing to 100")
	scanLen := flag.Uint("scanlen", 16, "keys per scan")
	preload := flag.Bool("preload", true, "insert the whole keyspace before the run")
	drain := flag.Bool("drain", false, "send DRAIN after the run; exit non-zero if it fails or its leak check does")
	seed := flag.Int64("seed", 1, "base RNG seed")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "TCP connect timeout")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-read/per-flush timeout (0 = none)")
	dialRetries := flag.Int("dial-retries", 3, "extra connect attempts (covers a server still starting)")
	budget := flag.Duration("budget", 0, "per-op wire execution budget (0 = none)")
	flag.Parse()

	m, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvload: %v\n", err)
		os.Exit(2)
	}
	if *dist != "zipfian" && *dist != "uniform" {
		fmt.Fprintf(os.Stderr, "kvload: unknown dist %q\n", *dist)
		os.Exit(2)
	}

	// -addr may be a comma-separated list (e.g. several kvproxy
	// processes); connection i dials addrs[i mod n]. Control traffic —
	// STATS, preload, the final DRAIN — uses the first address only.
	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	opts := []kvstore.Option{
		kvstore.WithDialTimeout(*dialTimeout),
		kvstore.WithReadTimeout(*ioTimeout),
		kvstore.WithWriteTimeout(*ioTimeout),
		kvstore.WithPipelineDepth(*pipeline),
		kvstore.WithRetries(*dialRetries),
	}
	ctl, err := kvstore.Dial(addrs[0], opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvload: %v\n", err)
		os.Exit(1)
	}
	stats, err := ctl.Stats(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvload: STATS: %v\n", err)
		os.Exit(1)
	}

	if *preload {
		n := uint64(0)
		for k := uint64(1); k <= *keys; k++ {
			ctl.SendPut(k, k)
			if n++; n%1024 == 0 {
				ctl.Flush()
				for ; n > 0; n-- {
					ctl.RecvPut()
				}
			}
		}
		ctl.Flush()
		for ; n > 0; n-- {
			ctl.RecvPut()
		}
	}

	// Against a kvproxy, hedge counters bracket the run so the report can
	// show how many reads the hedge actually rescued.
	info0, isProxy := clusterInfo(ctl)

	warmupUntil := time.Now().Add(*warmup)
	deadline := warmupUntil.Add(*duration)

	var hist obs.Hist
	results := make([]connResult, *conns)
	errs := make([]error, *conns)
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runConn(addrs[i%len(addrs)], opts, &hist, *seed+int64(i)*7919, deadline, warmupUntil,
				m, *dist, *theta, *keys, uint32(*scanLen), *pipeline, *budget)
		}(i)
	}
	wg.Wait()

	var total connResult
	for i := range results {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "kvload: conn %d: %v\n", i, errs[i])
			total.errs++
		}
		total.ops += results[i].ops
		total.errs += results[i].errs
		total.shed += results[i].shed
		total.expired += results[i].expired
	}
	lat := hist.Summary()
	hedged := ""
	if isProxy {
		if info1, ok := clusterInfo(ctl); ok {
			hedged = fmt.Sprintf(", %d/%d hedge wins",
				info1.HedgeWins-info0.HedgeWins, info1.HedgesFired-info0.HedgesFired)
		}
	}
	ctl.Close()
	var drainErr error
	if *drain {
		drainErr = drainTarget(addrs[0], *dialTimeout, *dialRetries, len(info0.Nodes))
	}

	fmt.Printf("%-8s %8.0f ops/s  p50 %.1fus  p99 %.1fus  p999 %.1fus  (%d ops, %d errs, %d shed, %d expired%s)\n",
		stats.Scheme, float64(lat.Count)/duration.Seconds(),
		lat.P50Us, lat.P99Us, lat.P999Us,
		total.ops, total.errs, total.shed, total.expired, hedged)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "kvload: DRAIN: %v\n", drainErr)
		os.Exit(1)
	}
}

// proxyInfo is the part of a kvproxy's CLUSTER_INFO kvload reads.
type proxyInfo struct {
	HedgesFired uint64            `json:"hedges_fired"`
	HedgeWins   uint64            `json:"hedge_wins"`
	Nodes       []json.RawMessage `json:"nodes"`
}

// clusterInfo reads the target's CLUSTER_INFO. A plain kvserver answers
// the admin verb with an Err frame; callers treat that as "not a proxy"
// and skip the hedge columns silently.
func clusterInfo(cl *kvstore.Client) (proxyInfo, bool) {
	var info proxyInfo
	raw, err := cl.ClusterInfo(context.Background())
	if err != nil || json.Unmarshal(raw, &info) != nil {
		return proxyInfo{}, false
	}
	return info, true
}

// drainTarget sends DRAIN over a fresh connection bounded by the
// target's own worst case rather than the per-read -io-timeout: a
// kvproxy first waits up to a minute for any resync to settle, then
// drains its backends one at a time, each allowed a minute (the tid
// barrier alone can take 30s). A plain kvserver counts as one backend.
// The data connections and the control connection are closed first:
// DRAIN is quiescent-use-only, and a kvserver's barrier waits for every
// other connection to go.
func drainTarget(addr string, dialTimeout time.Duration, dialRetries, backends int) error {
	if backends < 1 {
		backends = 1
	}
	limit := time.Minute * time.Duration(1+backends)
	cl, err := kvstore.Dial(addr, kvstore.WithDialTimeout(dialTimeout), kvstore.WithRetries(dialRetries))
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	dr, err := cl.Drain(ctx)
	if err != nil {
		return err
	}
	if !dr.LeakOK {
		return fmt.Errorf("leak check failed: %+v", dr)
	}
	return nil
}
