package torture

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/rt"
)

// The overload subject saturates a server whose admission control is
// deliberately tiny (3 inflight slots, 4 queue waiters) with three
// times as many budget-carrying connections as it has capacity, while
// the injector perturbs the reclamation hot paths underneath every
// admitted op. It proves the paper's robustness argument extended over
// the wire: shedding dead work keeps the retire backlog bounded, no
// acked write is ever lost, a shed or expired write provably never
// executes (strict shadow models — a refusal is a guarantee, not a
// maybe), and the two sides of the wire agree op-for-op on how much
// was refused.

// overloadBudget is the per-op execution budget the subject sends; ops
// parked in the admission queue longer than this are answered
// StatusDeadlineExceeded instead of executing.
const overloadBudget = 100 * time.Millisecond

// overloadTally is one connection's client-side ledger.
type overloadTally struct {
	ok      uint64
	shed    uint64 // ErrOverloaded observed
	expired uint64 // ErrDeadlineExceeded observed
}

// RunOverload tortures the admission-control path of an orcgc store.
func RunOverload(cfg Config) *Verdict {
	cfg.defaults()
	cfg.Stalls = 0 // no workers advance opsDone here; a park would only spin
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: "kv-overload", Kind: "overload", Seed: cfg.Seed, Threads: cfg.Threads}
	st, err := kvstore.New(kvstore.Config{Scheme: "orcgc", Shards: 4, Buckets: 256, MaxThreads: 64})
	if err != nil {
		v.failf("store construction: %v", err)
		return v
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.failf("listen: %v", err)
		return v
	}
	srv := kvstore.NewServer(st, kvstore.WithMaxInflight(3), kvstore.WithMaxQueue(4))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	in := newInjector(cfg)
	in.install()

	// Backlog monitor: the acceptance condition is that shedding keeps
	// the retire backlog bounded even though the server never gets a
	// quiet moment. The bound is generous — the point is that it cannot
	// grow with offered load, only with admitted load.
	const backlogBound = 1 << 17
	var maxBacklog int64
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(2 * time.Millisecond):
				if b := st.RetiredNotFreed(); b > maxBacklog {
					maxBacklog = b
				}
			}
		}
	}()

	// Writers keep strict shadow models over disjoint key ranges;
	// flooders (2 per writer) pile read pressure on so offered load is
	// 3× the 3-slot + 4-waiter capacity. Every connection pipelines
	// with explicit wire budgets and reads every response, so the
	// client-side ledger accounts for every op the server refused.
	writers := cfg.Threads
	flooders := 2 * cfg.Threads
	conns := writers + flooders
	tallies := make([]overloadTally, conns)
	hashes := make([]uint64, conns)
	shadows := make([]map[uint64]uint64, writers)
	failures := make([][]string, conns)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			shadows[tid], hashes[tid], failures[tid] =
				overloadWriter(addr, cfg, tid, &tallies[tid])
		}(w)
	}
	for f := 0; f < flooders; f++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			hashes[tid], failures[tid] = overloadFlooder(addr, cfg, tid, &tallies[tid])
		}(writers + f)
	}
	wg.Wait()
	in.uninstall()
	close(stopMon)
	monWG.Wait()

	v.Ops = uint64(conns) * cfg.OpsPerThread
	v.Perturbs = in.perturbs.Load()
	v.ScheduleHash = fnvOffset
	for _, h := range hashes {
		v.ScheduleHash = fnv1a(v.ScheduleHash, h)
	}
	for _, fs := range failures {
		for _, f := range fs {
			v.failf("%s", f)
		}
	}

	// Ledger: the two sides of the wire must agree exactly — every
	// refusal the server counted was observed by exactly one client as
	// the matching sentinel error, and vice versa.
	var ct overloadTally
	for i := range tallies {
		ct.ok += tallies[i].ok
		ct.shed += tallies[i].shed
		ct.expired += tallies[i].expired
	}
	as := srv.AdmissionStats()
	if as.Shed != ct.shed {
		v.failf("server shed_total %d != client-observed overloads %d", as.Shed, ct.shed)
	}
	if as.DeadlineExceeded != ct.expired {
		v.failf("server deadline_exceeded_total %d != client-observed expiries %d",
			as.DeadlineExceeded, ct.expired)
	}
	if ct.shed == 0 {
		v.failf("%d connections against 3 slots + 4 waiters shed nothing — admission never saturated", conns)
	}
	if ct.ok == 0 {
		v.failf("no op completed under overload — admission starved everything")
	}
	if maxBacklog > backlogBound {
		v.failf("retire backlog peaked at %d (> bound %d) under overload", maxBacklog, backlogBound)
	}
	v.Cluster = map[string]int64{
		"shed_total":              int64(as.Shed),
		"deadline_exceeded_total": int64(as.DeadlineExceeded),
		"client_overloaded":       int64(ct.shed),
		"client_expired":          int64(ct.expired),
		"completed":               int64(ct.ok),
		"max_backlog":             maxBacklog,
	}

	// Verify phase: an unbudgeted clean client replays every writer's
	// final shadow — an acked write survived, a refused write left no
	// trace — then drains the store to its leak baseline.
	cl, err := kvstore.Dial(addr,
		kvstore.WithRetries(3),
		kvstore.WithRetryBudget(5*time.Second),
		kvstore.WithReadTimeout(30*time.Second),
	)
	if err != nil {
		v.failf("clean client dial after overload: %v", err)
	} else {
		for tid, shadow := range shadows {
			if shadow == nil {
				continue
			}
			base := overloadBase(tid)
			mismatches := 0
			for k := base; k < base+overloadKeys && mismatches < 4; k++ {
				cl.SendGet(k)
				if err := cl.Flush(); err != nil {
					v.failf("verify flush: %v", err)
					break
				}
				got, found, err := cl.RecvGet()
				if err != nil {
					v.failf("verify get(%d): %v", k, err)
					break
				}
				want, has := shadow[k]
				if found != has || (has && got != want) {
					v.failf("writer %d key %d: store=(%d,%v) shadow=(%d,%v) — a refused write executed or an acked one vanished",
						tid, k, got, found, want, has)
					mismatches++
				}
			}
		}
		cl.SendDrain()
		if err := cl.Flush(); err != nil {
			v.failf("drain flush: %v", err)
		} else if rep, err := cl.RecvDrain(); err != nil {
			v.failf("drain: %v", err)
		} else {
			v.Baseline = rep.Baseline
			v.Arena.Live = rep.Live
			v.Scheme.RetiredNotFreed = rep.RetiredNotFreed
			v.Reclaiming = rep.Scheme != "none"
			if !rep.LeakOK {
				v.failf("drain report: scheme=%s live=%d baseline=%d pending=%d deleted=%d — leak check failed",
					rep.Scheme, rep.Live, rep.Baseline, rep.RetiredNotFreed, rep.Deleted)
			}
		}
		cl.Close()
	}
	srv.Shutdown()
	if err := <-served; err != nil {
		v.failf("serve: %v", err)
	}
	return v
}

// overloadKeys is each writer's private key-range width; disjoint
// ranges make the per-writer shadow models exact (no cross-writer
// interleaving to reason away).
const overloadKeys = 512

func overloadBase(tid int) uint64 { return uint64(tid)*overloadKeys + kvstore.MinKey }

// overloadWriter drives one budgeted pipelined connection over its own
// key range, applying a STRICT shadow discipline: StatusOK mutates the
// shadow, ErrOverloaded/ErrDeadlineExceeded leave it untouched (the
// refusal statuses are a contract, not a guess), anything else is a
// failure. Responses arrive in send order, so the shadow replays the
// exact server-side serialization.
func overloadWriter(addr string, cfg Config, tid int, tal *overloadTally) (map[uint64]uint64, uint64, []string) {
	var fails []string
	failf := func(format string, args ...any) {
		if len(fails) < 8 {
			fails = append(fails, fmt.Sprintf("writer %d: "+format, append([]any{tid}, args...)...))
		}
	}
	cl, err := kvstore.Dial(addr,
		kvstore.WithRetries(2),
		kvstore.WithRetryBudget(2*time.Second),
		kvstore.WithReadTimeout(30*time.Second),
		kvstore.WithPipelineDepth(16),
	)
	if err != nil {
		return nil, fnvOffset, []string{fmt.Sprintf("writer %d: dial: %v", tid, err)}
	}
	defer cl.Close()

	rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)+0x4F4C))
	h := fnvOffset
	base := overloadBase(tid)
	shadow := make(map[uint64]uint64, overloadKeys)

	type pendOp struct {
		op  uint8
		key uint64
		val uint64
	}
	const pipeline = 8
	pend := make([]pendOp, 0, pipeline)
	drain := func() bool {
		if err := cl.Flush(); err != nil {
			failf("flush: %v", err)
			return false
		}
		for _, po := range pend {
			switch po.op {
			case kvstore.OpPut:
				_, err := cl.RecvPut()
				switch {
				case err == nil:
					tal.ok++
					shadow[po.key] = po.val
				case isRefusal(err, tal):
				default:
					failf("put(%d): %v", po.key, err)
					return false
				}
			case kvstore.OpDel:
				found, err := cl.RecvDel()
				switch {
				case err == nil:
					tal.ok++
					if _, has := shadow[po.key]; has != found {
						failf("del(%d) found=%v but shadow has=%v", po.key, found, has)
					}
					delete(shadow, po.key)
				case isRefusal(err, tal):
				default:
					failf("del(%d): %v", po.key, err)
					return false
				}
			default: // OpGet
				got, found, err := cl.RecvGet()
				switch {
				case err == nil:
					tal.ok++
					want, has := shadow[po.key]
					if found != has || (has && got != want) {
						failf("get(%d) = (%d,%v), shadow (%d,%v)", po.key, got, found, want, has)
					}
				case isRefusal(err, tal):
				default:
					failf("get(%d): %v", po.key, err)
					return false
				}
			}
		}
		pend = pend[:0]
		return true
	}
	for i := uint64(0); i < cfg.OpsPerThread; i++ {
		x := rng.Next()
		key := base + x%overloadKeys
		var po pendOp
		switch x >> 62 {
		case 0, 1:
			po = pendOp{op: kvstore.OpPut, key: key, val: x >> 8}
			cl.SendPutBudget(key, po.val, overloadBudget)
		case 2:
			po = pendOp{op: kvstore.OpGet, key: key}
			cl.SendGetBudget(key, overloadBudget)
		default:
			po = pendOp{op: kvstore.OpDel, key: key}
			cl.SendDelBudget(key, overloadBudget)
		}
		h = fnv1a(h, uint64(po.op), key)
		pend = append(pend, po)
		if len(pend) == pipeline && !drain() {
			return shadow, h, fails
		}
	}
	drain()
	return shadow, h, fails
}

// overloadFlooder is pure read/scan pressure: budgeted GETs over the
// writers' ranges plus occasional full-width SCANs (the op that holds
// an inflight slot longest). It asserts nothing about values — its job
// is to keep the admission queue full — but it still reads and tallies
// every response so the refusal ledger stays exact.
func overloadFlooder(addr string, cfg Config, tid int, tal *overloadTally) (uint64, []string) {
	cl, err := kvstore.Dial(addr,
		kvstore.WithRetries(2),
		kvstore.WithRetryBudget(2*time.Second),
		kvstore.WithReadTimeout(30*time.Second),
		kvstore.WithPipelineDepth(16),
	)
	if err != nil {
		return fnvOffset, []string{fmt.Sprintf("flooder %d: dial: %v", tid, err)}
	}
	defer cl.Close()

	rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)+0x464C))
	h := fnvOffset
	span := uint64(cfg.Threads) * overloadKeys
	const pipeline = 8
	kinds := make([]uint8, 0, pipeline)
	var fails []string
	drain := func() bool {
		if err := cl.Flush(); err != nil {
			fails = append(fails, fmt.Sprintf("flooder %d: flush: %v", tid, err))
			return false
		}
		for _, op := range kinds {
			var err error
			if op == kvstore.OpScan {
				_, err = cl.RecvScan(nil)
			} else {
				_, _, err = cl.RecvGet()
			}
			switch {
			case err == nil:
				tal.ok++
			case isRefusal(err, tal):
			default:
				fails = append(fails, fmt.Sprintf("flooder %d: recv: %v", tid, err))
				return false
			}
		}
		kinds = kinds[:0]
		return true
	}
	for i := uint64(0); i < cfg.OpsPerThread; i++ {
		x := rng.Next()
		key := x%span + kvstore.MinKey
		if x>>61 == 0 {
			cl.SendScanBudget(kvstore.MinKey, 256, overloadBudget)
			kinds = append(kinds, kvstore.OpScan)
			h = fnv1a(h, uint64(kvstore.OpScan), 256)
		} else {
			cl.SendGetBudget(key, overloadBudget)
			kinds = append(kinds, kvstore.OpGet)
			h = fnv1a(h, uint64(kvstore.OpGet), key)
		}
		if len(kinds) == pipeline && !drain() {
			return h, fails
		}
	}
	drain()
	return h, fails
}

// isRefusal tallies the two not-executed statuses, returning true when
// err was one of them.
func isRefusal(err error, tal *overloadTally) bool {
	switch {
	case errors.Is(err, kvstore.ErrOverloaded):
		tal.shed++
		return true
	case errors.Is(err, kvstore.ErrDeadlineExceeded):
		tal.expired++
		return true
	}
	return false
}
