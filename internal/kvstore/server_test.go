package kvstore

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ds/hashmap"
	"repro/internal/ds/skiplist"
)

// ctx is the no-deadline context the blocking round trips in these
// tests run under; cancellation behavior has its own test.
var ctx = context.Background()

func startServer(t *testing.T, scheme string, maxThreads int) (*Store, *Server, string) {
	t.Helper()
	st, err := New(Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: maxThreads})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return st, srv, ln.Addr().String()
}

// TestServerRoundTrip exercises every op through the blocking client.
func TestServerRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, "orcgc", 4)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if ins, err := cl.Put(ctx, 42, 1000); err != nil || !ins {
		t.Fatalf("put = %v,%v", ins, err)
	}
	if v, ok, err := cl.Get(ctx, 42); err != nil || !ok || v != 1000 {
		t.Fatalf("get = %d,%v,%v", v, ok, err)
	}
	if _, ok, _ := cl.Get(ctx, 43); ok {
		t.Fatal("get on absent key")
	}
	for k := uint64(100); k < 110; k++ {
		cl.Put(ctx, k, k*2)
	}
	pairs, err := cl.Scan(ctx, 100, 5)
	if err != nil || len(pairs) != 10 {
		t.Fatalf("scan = %v (err %v)", pairs, err)
	}
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i+1] != pairs[i]*2 {
			t.Fatalf("scan pair %d→%d", pairs[i], pairs[i+1])
		}
	}
	if ok, _ := cl.Del(ctx, 42); !ok {
		t.Fatal("del")
	}
	if ok, _ := cl.Del(ctx, 42); ok {
		t.Fatal("double del reported found")
	}
	stats, err := cl.Stats(ctx)
	if err != nil || stats.Scheme != "orcgc" || stats.Live <= stats.Baseline {
		t.Fatalf("stats = %+v (err %v)", stats, err)
	}
	if _, _, err := cl.Get(ctx, 0); err == nil {
		t.Fatal("key 0 must produce a server error")
	}
}

// TestServerPipelinedDrain is the -race integration test: an in-process
// server on loopback, 8 concurrent clients each pipelining a mixed
// get/put/del/scan workload, run under both orcgc and hp, asserting
// arena Live returns to the post-construction baseline after the
// workload drains. This is the tentpole's end-to-end leak check: every
// reclamation handoff (connection tids, epoch brackets held across
// scans, retired nodes parked on per-thread lists) must unwind.
func TestServerPipelinedDrain(t *testing.T) {
	const clients = 8
	const opsPer = 600
	const pipeline = 32
	for _, scheme := range []string{"orcgc", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			st, srv, addr := startServer(t, scheme, clients+2)

			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					cl, err := Dial(addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer cl.Close()
					base := seed * 10000
					x := seed + 1
					sent := make([]uint8, 0, pipeline)
					flushAndDrain := func() {
						if err := cl.Flush(); err != nil {
							t.Error(err)
							return
						}
						for _, op := range sent {
							var err error
							switch op {
							case OpGet:
								_, _, err = cl.RecvGet()
							case OpPut:
								_, err = cl.RecvPut()
							case OpDel:
								_, err = cl.RecvDel()
							case OpScan:
								_, err = cl.RecvScan(nil)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
						sent = sent[:0]
					}
					for i := 0; i < opsPer; i++ {
						x = x*6364136223846793005 + 1442695040888963407 // LCG
						k := base + x%512 + 1
						switch x >> 60 & 7 {
						case 0, 1, 2:
							cl.SendGet(k)
							sent = append(sent, OpGet)
						case 3, 4, 5:
							cl.SendPut(k, x)
							sent = append(sent, OpPut)
						case 6:
							cl.SendDel(k)
							sent = append(sent, OpDel)
						default:
							cl.SendScan(base, 16)
							sent = append(sent, OpScan)
						}
						if len(sent) == pipeline {
							flushAndDrain()
						}
					}
					flushAndDrain()
					// Empty this client's keys so drain has little to do.
					for k := base + 1; k <= base+512; k++ {
						cl.SendDel(k)
						sent = append(sent, OpDel)
						if len(sent) == pipeline {
							flushAndDrain()
						}
					}
					flushAndDrain()
				}(uint64(w))
			}
			wg.Wait()
			srv.Shutdown()

			rep := st.DrainAndCheck(0)
			if !rep.LeakOK {
				t.Fatalf("%s: leak check failed: %+v", scheme, rep)
			}
			if rep.Live != rep.Baseline {
				t.Fatalf("%s: Live %d != baseline %d after drain", scheme, rep.Live, rep.Baseline)
			}
		})
	}
}

// TestServerTidExhaustion checks the server refuses connections beyond
// the tid pool instead of corrupting reclamation state.
// TestServerReusesLowestTid: sequential connections all run as tid 1,
// so connection churn never raises an OrcGC domain's tid watermark past
// tid 0 (construction) and tid 1.
func TestServerReusesLowestTid(t *testing.T) {
	st, srv, addr := startServer(t, "orcgc", 64)
	for i := 0; i < 100; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(ctx, uint64(i+1), uint64(i)); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv.mu.Lock()
			n := len(srv.conns)
			srv.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: connection never untracked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	watermarks := []int{st.scan.(*skiplist.CRFOrc).Domain().Threads()}
	for _, point := range st.shards {
		watermarks = append(watermarks, point.(*hashmap.OrcMap).Domain().Threads())
	}
	for i, w := range watermarks {
		if w > 2 {
			t.Fatalf("domain %d tid watermark %d after 100 sequential connections, want <= 2", i, w)
		}
	}
}

func TestServerTidExhaustion(t *testing.T) {
	_, _, addr := startServer(t, "ebr", 2) // pool = {1}: one connection
	cl1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	if _, err := cl1.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Put(ctx, 2, 2); err == nil {
		t.Fatal("second connection should have been refused")
	}
}
