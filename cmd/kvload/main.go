// kvload drives a kvserver with an open-loop mixed workload and reports
// throughput plus an HDR-style latency distribution.
//
//	kvload -addr 127.0.0.1:7070 -conns 8 -rate 20000 -duration 5s \
//	       -dist zipfian -theta 0.99 -keys 100000 -mix get=50,put=45,del=4,scan=1
//	kvload -conns 16 -budget 250ms     # per-op wire budget (v1 servers)
//
// With -budget > 0 each connection negotiates the wire version and
// attaches the budget to every op; a server that refuses an op with
// StatusOverloaded or StatusDeadlineExceeded (admission control / the
// budget expiring in its queue) is counted in the shed/expired columns
// instead of as an error, and refusals never pollute the latency
// distribution. Against a pre-versioning server the flag degrades to
// plain unbudgeted ops.
//
// With -rate > 0 each connection paces sends on its own schedule and
// latency is measured from the *scheduled* send time, so queueing delay
// from a slow server is charged to the server (no coordinated
// omission). With -rate 0 the generator runs closed-loop: each
// connection keeps -pipeline requests in flight and latency is measured
// from the actual send.
//
// The run ends in one summary line on stdout, led by the server's
// scheme (fetched via STATS). Every connection records into one shared
// obs.Hist; only post-warmup, accepted ops count toward throughput and
// the percentiles.
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
// connection: which Recv* to call and when the op was (scheduled to be)
// sent.
type inflight struct {
	op    uint8
	sched time.Time
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
	interval time.Duration, pipeline int, budget time.Duration) (connResult, error) {

	cl, err := kvstore.Dial(addr, opts...)
	if err != nil {
		return connResult{}, err
	}
	defer cl.Close()
	if budget > 0 {
		// Budgets only ride the wire on a negotiated v1 connection; a
		// pre-versioning server negotiates down and the Send*Budget
		// helpers silently fall back to plain ops.
		if _, err := cl.Negotiate(context.Background()); err != nil {
			return connResult{}, fmt.Errorf("negotiate: %w", err)
		}
	}

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
				hist.Observe(uint64(now.Sub(f.sched)))
			}
		}
	}()

	send := func(sched time.Time) {
		k := gen.next()
		p := r.Intn(100)
		var op uint8
		switch {
		case p < m.get:
			op = kvstore.OpGet
			cl.SendGetBudget(k, budget)
		case p < m.put:
			op = kvstore.OpPut
			cl.SendPutBudget(k, k^uint64(sched.UnixNano()), budget)
		case p < m.del:
			op = kvstore.OpDel
			cl.SendDelBudget(k, budget)
		default:
			op = kvstore.OpScan
			cl.SendScanBudget(k, scanLen, budget)
		}
		queue <- inflight{op: op, sched: sched}
	}

	if interval > 0 {
		// Open loop: send on the schedule regardless of responses;
		// flush in small batches to amortize syscalls.
		next := time.Now()
		unflushed := 0
		for time.Now().Before(deadline) && !failed.Load() {
			now := time.Now()
			if now.Before(next) {
				if unflushed > 0 {
					cl.Flush()
					unflushed = 0
				}
				time.Sleep(next.Sub(now))
			}
			send(next) // latency clock starts at the scheduled time
			unflushed++
			if unflushed >= 16 {
				cl.Flush()
				unflushed = 0
			}
			next = next.Add(interval)
		}
	} else {
		// Closed loop: keep `pipeline` requests in flight.
		sent := 0
		for time.Now().Before(deadline) && !failed.Load() {
			for sent < pipeline {
				send(time.Now())
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
	}
	cl.CloseWrite()
	close(queue)
	rwg.Wait()
	return res, recvErr
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address, or a comma-separated list round-robined across -conns")
	conns := flag.Int("conns", 8, "concurrent connections")
	rate := flag.Float64("rate", 0, "total target ops/sec across all conns (0 = closed loop)")
	pipeline := flag.Int("pipeline", 16, "closed-loop in-flight requests per conn")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	warmup := flag.Duration("warmup", time.Second, "lead-in whose latencies are discarded")
	dist := flag.String("dist", "zipfian", "key distribution: zipfian|uniform")
	theta := flag.Float64("theta", 0.99, "zipfian exponent (YCSB default 0.99)")
	keys := flag.Uint64("keys", 100000, "keyspace size")
	mixFlag := flag.String("mix", "get=50,put=45,del=4,scan=1", "op mix, weights summing to 100")
	scanLen := flag.Uint("scanlen", 16, "keys per scan")
	preload := flag.Bool("preload", true, "insert the whole keyspace before the run")
	drain := flag.Bool("drain", false, "send DRAIN after the run; a failed leak check is reported on stderr")
	seed := flag.Int64("seed", 1, "base RNG seed")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "TCP connect timeout")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-read/per-flush timeout (0 = none)")
	dialRetries := flag.Int("dial-retries", 3, "extra connect attempts (covers a server still starting)")
	budget := flag.Duration("budget", 0, "per-op wire execution budget (0 = none; needs a v1 server)")
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
	hedge0, wins0, isProxy := hedgeCounters(ctl)

	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(*conns) / *rate * float64(time.Second))
	}
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
				m, *dist, *theta, *keys, uint32(*scanLen), interval, *pipeline, *budget)
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
		if hedge1, wins1, ok := hedgeCounters(ctl); ok {
			hedged = fmt.Sprintf(", %d/%d hedge wins", wins1-wins0, hedge1-hedge0)
		}
	}
	if *drain {
		if dr, err := ctl.Drain(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "kvload: DRAIN: %v\n", err)
		} else if !dr.LeakOK {
			fmt.Fprintf(os.Stderr, "kvload: DRAIN: leak check failed: %+v\n", dr)
		}
	}
	ctl.Close()

	fmt.Printf("%-8s %8.0f ops/s  p50 %.1fus  p99 %.1fus  p999 %.1fus  (%d ops, %d errs, %d shed, %d expired%s)\n",
		stats.Scheme, float64(lat.Count)/duration.Seconds(),
		lat.P50Us, lat.P99Us, lat.P999Us,
		total.ops, total.errs, total.shed, total.expired, hedged)
}

// hedgeCounters reads the target's hedge counters via CLUSTER_INFO. A
// plain kvserver answers the admin verb with an Err frame; callers
// treat that as "not a proxy" and skip the columns silently.
func hedgeCounters(cl *kvstore.Client) (fired, wins uint64, ok bool) {
	raw, err := cl.ClusterInfo(context.Background())
	if err != nil {
		return 0, 0, false
	}
	var info struct {
		HedgesFired uint64 `json:"hedges_fired"`
		HedgeWins   uint64 `json:"hedge_wins"`
	}
	if json.Unmarshal(raw, &info) != nil {
		return 0, 0, false
	}
	return info.HedgesFired, info.HedgeWins, true
}
