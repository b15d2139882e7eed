package torture

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/rt"
)

// The kvstore chaos subject drives a live in-process server through
// every kind of client misbehavior the wire protocol permits — dropped
// connections mid-pipeline, aborted writes, partial frames, and slow
// readers — with scheduler perturbation injected at the reclamation
// hot paths underneath, then proves the store is still coherent: a clean
// client round-trips fresh writes, and DrainAndCheck's report shows the
// arenas back at baseline (conservation for the "none" scheme).

// chaosKeys bounds the chaos key range so Put/Del collide heavily.
const chaosKeys = 2048

// RunKV tortures one store scheme under connection chaos.
func RunKV(scheme string, cfg Config) *Verdict {
	cfg.defaults()
	cfg.Stalls = 0 // no workers advance opsDone here; a park would only spin
	hookMu.Lock()
	defer hookMu.Unlock()

	v := &Verdict{Subject: "kv-" + scheme, Kind: "kv", Seed: cfg.Seed, Threads: cfg.Threads}
	st, err := kvstore.New(kvstore.Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: 64})
	if err != nil {
		v.failf("store construction: %v", err)
		return v
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.failf("listen: %v", err)
		return v
	}
	srv := kvstore.NewServer(st)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	in := newInjector(cfg)
	in.install()

	// Chaos phase: Threads goroutines, each running a deterministic
	// stream of misbehaving connections.
	connsPer := 4 + int(cfg.OpsPerThread/256)
	if connsPer > 32 {
		connsPer = 32
	}
	hashes := make([]uint64, cfg.Threads)
	dialFails := make([]int, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rt.NewPCG(rt.Mix64(cfg.Seed, uint64(tid)+0x6B76))
			h := fnvOffset
			for c := 0; c < connsPer; c++ {
				fate := rng.Next() % 5
				h = fnv1a(h, fate)
				if !chaosConn(addr, fate, &rng, &h) {
					dialFails[tid]++
				}
				in.opsDone.Add(1)
			}
			hashes[tid] = h
		}(w)
	}
	wg.Wait()
	in.uninstall()
	v.Ops = in.opsDone.Load()
	v.Perturbs = in.perturbs.Load()
	v.ScheduleHash = fnvOffset
	for _, h := range hashes {
		v.ScheduleHash = fnv1a(v.ScheduleHash, h)
	}
	for tid, n := range dialFails {
		if n > 0 {
			v.failf("tid %d: %d chaos connections failed to dial", tid, n)
		}
	}

	// Verify phase: the server must still serve a clean client, and the
	// drain report must balance.
	cl, err := kvstore.Dial(addr,
		kvstore.WithRetries(3),
		kvstore.WithRetryBudget(5*time.Second),
		kvstore.WithReadTimeout(30*time.Second),
	)
	if err != nil {
		v.failf("clean client dial after chaos: %v", err)
	} else {
		for k := uint64(1); k <= 16; k++ {
			if _, err := cl.Put(context.Background(), k, k*k); err != nil {
				v.failf("post-chaos put(%d): %v", k, err)
				break
			}
			if val, found, err := cl.Get(context.Background(), k); err != nil || !found || val != k*k {
				v.failf("post-chaos get(%d) = (%d, %v, %v), want (%d, true, nil)", k, val, found, err, k*k)
				break
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

// chaosConn runs one misbehaving connection. Returns false only when the
// dial itself failed; protocol errors afterwards are the point.
func chaosConn(addr string, fate uint64, rng *rt.PCG, h *uint64) bool {
	if fate == 3 {
		// Partial frame: open a raw connection, write a truncated PUT
		// frame (length prefix promises 17 bytes, deliver 5), hang up.
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		var frame [9]byte
		binary.LittleEndian.PutUint32(frame[0:4], 17)
		frame[4] = kvstore.OpPut
		c.Write(frame[:5])
		*h = fnv1a(*h, 17)
		c.Close()
		return true
	}
	cl, err := kvstore.Dial(addr,
		kvstore.WithRetries(2),
		kvstore.WithRetryBackoff(10*time.Millisecond),
		kvstore.WithRetryBudget(2*time.Second),
		kvstore.WithReadTimeout(30*time.Second),
		kvstore.WithPipelineDepth(64),
	)
	if err != nil {
		return false
	}
	defer cl.Close()
	nops := int(rng.Next()%48) + 8
	kinds := make([]byte, nops)
	for i := 0; i < nops; i++ {
		x := rng.Next()
		key := x%chaosKeys + kvstore.MinKey
		switch x >> 62 {
		case 0, 1:
			cl.SendPut(key, x>>8)
			kinds[i] = kvstore.OpPut
		case 2:
			cl.SendGet(key)
			kinds[i] = kvstore.OpGet
		default:
			cl.SendDel(key)
			kinds[i] = kvstore.OpDel
		}
		*h = fnv1a(*h, uint64(kinds[i]), key)
	}
	switch fate {
	case 0: // clean: flush, read every response, close
		if cl.Flush() != nil {
			return true
		}
		recvN(cl, kinds, nops)
	case 1: // drop mid-pipeline: read half the responses, vanish
		if cl.Flush() != nil {
			return true
		}
		recvN(cl, kinds, nops/2)
	case 2: // abort: buffered requests never flushed, connection dies
	case 4: // slow reader: drain one response per scheduler round
		if cl.Flush() != nil {
			return true
		}
		for i := 0; i < nops; i++ {
			recvN(cl, kinds[i:], 1)
			runtime.Gosched()
		}
	}
	return true
}

func recvN(cl *kvstore.Client, kinds []byte, n int) {
	for i := 0; i < n && i < len(kinds); i++ {
		var err error
		switch kinds[i] {
		case kvstore.OpPut:
			_, err = cl.RecvPut()
		case kvstore.OpGet:
			_, _, err = cl.RecvGet()
		default:
			_, err = cl.RecvDel()
		}
		if err != nil {
			return
		}
	}
}
