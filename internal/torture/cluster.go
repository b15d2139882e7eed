package torture

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/rt"
)

// The cluster-failover subject tortures the orccluster proxy's central
// promise — no acked write is ever lost at R=2 — by killing and
// restarting a backend in the middle of a live workload. Three
// in-process kvservers run three different reclamation schemes behind
// one proxy; seeded workers drive disjoint key partitions through real
// TCP connections, each checking every GET against its shadow model.
// Mid-run the seed-chosen victim's server is shut down, traffic runs
// degraded, then a *fresh empty* store is restarted on the same address
// and must resync before re-entering the read path. The run ends with
// the shadow verification, then per-backend DrainAndCheck leak verdicts
// — including the corpse of the original victim store, whose arenas
// must also balance.

// clusterSchemes are the three backends' reclamation schemes: the
// paper's scheme plus the two classic manual baselines.
var clusterSchemes = [3]string{"orcgc", "hp", "ebr"}

type clusterBackend struct {
	scheme string
	addr   string
	st     *kvstore.Store
	srv    *kvstore.Server
	done   chan error
}

func startClusterKV(scheme, addr string) (*clusterBackend, error) {
	st, err := kvstore.New(kvstore.Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: 64})
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i == 100 {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond) // the just-killed listener may linger
	}
	b := &clusterBackend{scheme: scheme, addr: ln.Addr().String(), st: st, srv: kvstore.NewServer(st), done: make(chan error, 1)}
	go func() { b.done <- b.srv.Serve(ln) }()
	return b, nil
}

func (b *clusterBackend) shutdown() error {
	b.srv.Shutdown()
	return <-b.done
}

// RunCluster tortures the proxy under a mid-run backend kill/restart.
func RunCluster(cfg Config) *Verdict {
	cfg.defaults()
	cfg.Stalls = 0 // server tids park on opsDone, which stops once workers block on them
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: "cluster-failover", Kind: "cluster", Seed: cfg.Seed, Threads: cfg.Threads}

	var backs [3]*clusterBackend
	for i, scheme := range clusterSchemes {
		b, err := startClusterKV(scheme, "127.0.0.1:0")
		if err != nil {
			v.failf("backend %s: %v", scheme, err)
			return v
		}
		backs[i] = b
	}
	addrs := []string{backs[0].addr, backs[1].addr, backs[2].addr}
	p := cluster.New(cluster.Config{Backends: addrs, Replicas: 2, Depth: 128})
	if err := p.WaitReady(10 * time.Second); err != nil {
		v.failf("proxy: %v", err)
		return v
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.failf("proxy listen: %v", err)
		return v
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(pln) }()
	proxyAddr := pln.Addr().String()

	in := newInjector(cfg)
	in.install()

	total := uint64(cfg.Threads) * cfg.OpsPerThread
	victim := int(cfg.Seed % 3)
	var corpse *clusterBackend // the victim's original store, for its own leak verdict

	// Chaos controller: kill the victim around 30% of the run, restart
	// it empty on the same address around 50%, and require the proxy to
	// resync it back to healthy.
	chaosDone := make(chan error, 1)
	workersDone := make(chan struct{})
	go func() {
		waitOps := func(target uint64) {
			for in.opsDone.Load() < target {
				select {
				case <-workersDone:
					return
				default:
					time.Sleep(time.Millisecond)
				}
			}
		}
		waitOps(total * 3 / 10)
		corpse = backs[victim]
		if err := corpse.shutdown(); err != nil {
			chaosDone <- fmt.Errorf("victim shutdown: %w", err)
			return
		}
		waitOps(total * 5 / 10)
		nb, err := startClusterKV(corpse.scheme, corpse.addr)
		if err != nil {
			chaosDone <- fmt.Errorf("victim restart: %w", err)
			return
		}
		backs[victim] = nb
		// The restarted (empty) store must resync and rejoin the read
		// path while the workload is still running.
		if err := p.WaitReady(60 * time.Second); err != nil {
			chaosDone <- fmt.Errorf("victim never rejoined: %w", err)
			return
		}
		chaosDone <- nil
	}()

	// Workers: disjoint key partitions, per-key shadow models, every GET
	// verified. An op whose response errored is "maybe applied": its key
	// drops out of strict checking until a later successful read
	// re-anchors the shadow (sound because each key has one owner and
	// read-eligible replicas always agree on acked state).
	type worker struct {
		hash   uint64
		errs   uint64
		ops    uint64
		lost   []string
		shadow map[uint64]uint64
		maybe  map[uint64]bool
	}
	workers := make([]worker, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			me := &workers[tid]
			me.shadow = make(map[uint64]uint64, cfg.Keys)
			me.maybe = make(map[uint64]bool)
			base := kvstore.MinKey + uint64(tid)*cfg.Keys
			rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)+0xC1A5))
			cl, err := kvstore.Dial(proxyAddr,
				kvstore.WithReadTimeout(30*time.Second), kvstore.WithRetries(3),
			)
			if err != nil {
				me.lost = append(me.lost, fmt.Sprintf("tid %d: dial: %v", tid, err))
				return
			}
			defer cl.Close()
			h := fnvOffset
			for i := uint64(0); i < cfg.OpsPerThread; i++ {
				x := rng.Next()
				key := base + x%cfg.Keys
				switch {
				case x>>61 < 3: // ~37.5% put
					val := rt.Mix64(x, key)
					h = fnv1a(h, uint64(kvstore.OpPut), key)
					if _, err := cl.Put(context.Background(), key, val); err != nil {
						me.errs++
						me.maybe[key] = true
					} else {
						me.shadow[key] = val
						delete(me.maybe, key)
					}
				case x>>61 < 5: // ~25% del
					h = fnv1a(h, uint64(kvstore.OpDel), key)
					if _, err := cl.Del(context.Background(), key); err != nil {
						me.errs++
						me.maybe[key] = true
					} else {
						delete(me.shadow, key)
						delete(me.maybe, key)
					}
				case x>>61 == 7 && x&63 == 0: // rare scan, failover exercise only
					h = fnv1a(h, uint64(kvstore.OpScan), key)
					if _, err := cl.Scan(context.Background(), key, 16); err != nil {
						me.errs++
					}
				default: // get, verified against the shadow
					h = fnv1a(h, uint64(kvstore.OpGet), key)
					val, found, err := cl.Get(context.Background(), key)
					if err != nil {
						me.errs++
						break
					}
					want, wantFound := me.shadow[key]
					if me.maybe[key] {
						// Ambiguous op outstanding: accept what the
						// cluster says and re-anchor the shadow on it.
						if found {
							me.shadow[key] = val
						} else {
							delete(me.shadow, key)
						}
						delete(me.maybe, key)
					} else if found != wantFound || (found && val != want) {
						me.lost = append(me.lost, fmt.Sprintf(
							"tid %d op %d: get(%d) = (%d, %v), shadow (%d, %v)",
							tid, i, key, val, found, want, wantFound))
						if len(me.lost) > 8 {
							return
						}
					}
				}
				me.ops++
				in.opsDone.Add(1)
			}
			me.hash = h
		}(w)
	}
	wg.Wait()
	close(workersDone)
	if err := <-chaosDone; err != nil {
		v.failf("chaos: %v", err)
	}
	in.uninstall()

	v.ScheduleHash = fnvOffset
	var errs uint64
	for tid := range workers {
		w := &workers[tid]
		v.Ops += w.ops
		errs += w.errs
		v.ScheduleHash = fnv1a(v.ScheduleHash, w.hash)
		for _, l := range w.lost {
			v.failf("lost acked write: %s", l)
		}
	}
	v.Perturbs = in.perturbs.Load()
	if v.Ops > 0 && errs > v.Ops/100 {
		v.failf("%d of %d ops errored (>1%%) — failover is not masking single-backend loss", errs, v.Ops)
	}

	// Final sweep: every key every worker believes acked must read back
	// through a fresh connection, after the cluster has settled.
	if cl, err := kvstore.Dial(proxyAddr, kvstore.WithReadTimeout(30*time.Second), kvstore.WithRetries(3)); err != nil {
		v.failf("verify dial: %v", err)
	} else {
		mismatches := 0
		for tid := range workers {
			w := &workers[tid]
			for key, want := range w.shadow {
				if w.maybe[key] {
					continue
				}
				val, found, err := cl.Get(context.Background(), key)
				if err != nil || !found || val != want {
					v.failf("final verify: get(%d) = (%d, %v, %v), want (%d, true)", key, val, found, err, want)
					if mismatches++; mismatches > 8 {
						break
					}
				}
			}
		}
		cl.Close()
	}

	// Proxy-level counters go to the ledger via the Admin surface.
	var ad bench.Admin = &bench.Hooks{ClusterStats: func() map[string]int64 {
		info := p.Snapshot()
		return map[string]int64{
			"routed":        int64(info.RoutedOps),
			"hedges_fired":  int64(info.HedgesFired),
			"hedge_wins":    int64(info.HedgeWins),
			"read_retries":  int64(info.ReadRetries),
			"degraded":      int64(info.DegradedWrites),
			"keys_moved":    int64(info.KeysMoved),
			"breaker_trips": breakerTrips(info),
		}
	}}
	v.Cluster = ad.Stats().Cluster()
	if v.Cluster["breaker_trips"] == 0 && corpse != nil {
		v.failf("victim was killed but the breaker never tripped")
	}

	p.Shutdown()
	if err := <-served; err != nil {
		v.failf("proxy serve: %v", err)
	}

	// Per-backend leak verdicts: the three live stores, plus the corpse
	// of the original victim — a kill/restart must not leak on either
	// side of the divide.
	check := func(tag string, b *clusterBackend, live bool) {
		if live {
			if err := b.shutdown(); err != nil {
				v.failf("%s (%s) shutdown: %v", tag, b.scheme, err)
			}
		}
		rep := b.st.DrainAndCheck(0)
		v.Baseline += rep.Baseline
		v.Arena.Live += rep.Live
		v.Scheme.RetiredNotFreed += rep.RetiredNotFreed
		if !rep.LeakOK {
			v.failf("%s (%s): leak check failed: live=%d baseline=%d pending=%d",
				tag, b.scheme, rep.Live, rep.Baseline, rep.RetiredNotFreed)
		}
	}
	for i, b := range backs {
		check(fmt.Sprintf("backend %d", i), b, true)
	}
	if corpse != nil {
		check("victim corpse", corpse, false)
	}
	v.Reclaiming = true
	return v
}

func breakerTrips(info cluster.Info) int64 {
	var n int64
	for _, nd := range info.Nodes {
		n += int64(nd.BreakerTrips)
	}
	return n
}
