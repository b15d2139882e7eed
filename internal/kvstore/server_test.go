package kvstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ds/hashmap"
	"repro/internal/ds/skiplist"
	"repro/internal/obs"
)

// ctx is the no-deadline context the blocking round trips in these
// tests run under; cancellation behavior has its own test.
var ctx = context.Background()

func startServer(t *testing.T, scheme string, maxThreads int, opts ...ServerOption) (*Store, *Server, string) {
	t.Helper()
	st, err := New(Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: maxThreads})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, opts...)
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

// TestServerTidExhaustion checks the server refuses connections beyond
// the tid pool instead of corrupting reclamation state.
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

// serveConn runs handle on c the way Serve runs an accepted connection:
// with a tid token, the lowest free tid and that tid's writer.
func serveConn(s *Server, c net.Conn) {
	<-s.tids
	tid, _ := s.track(c)
	s.wg.Add(1)
	s.handle(c, tid)
}

// getFrames encodes a pipelined burst of GETs for keys 1..n.
func getFrames(n int) []byte {
	var b []byte
	for k := 1; k <= n; k++ {
		b = appendFrame(b, appendU64([]byte{OpGet}, uint64(k)))
	}
	return b
}

// TestServerFlushesBeforeAdmissionPark: a response already encoded must
// not wait behind a later op parked in admission. STATS bypasses
// admission and executes at once; the GET pipelined behind it parks on
// the held slot, and the connection must flush the STATS response
// before it parks.
func TestServerFlushesBeforeAdmissionPark(t *testing.T) {
	_, srv, addr := startServer(t, "orcgc", 8, WithMaxInflight(1))
	cl, err := Dial(addr, WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	<-srv.adm.slots // the only inflight slot
	release := sync.OnceFunc(func() { srv.adm.slots <- struct{}{} })
	defer release() // before Shutdown waits for the parked GET

	cl.SendStats()
	cl.SendGet(1)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RecvStats(); err != nil {
		t.Fatalf("STATS response held behind a GET parked in admission: %v", err)
	}
	release()
	if _, found, err := cl.RecvGet(); err != nil || found {
		t.Fatalf("GET after the slot freed = found %v, err %v", found, err)
	}
}

// TestServerFlushesBeforeDrainClaim: DRAIN waits to claim every other
// connection's tid, so the responses pipelined ahead of it go out first.
func TestServerFlushesBeforeDrainClaim(t *testing.T) {
	_, _, addr := startServer(t, "orcgc", 4)
	other, err := net.Dial("tcp", addr) // holds a tid until closed
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	cl, err := Dial(addr, WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SendGet(1)
	cl.SendDrain()
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.RecvGet(); err != nil {
		t.Fatalf("GET response held behind a DRAIN waiting for tids: %v", err)
	}
	other.Close()
	if rep, err := cl.RecvDrain(); err != nil || !rep.LeakOK {
		t.Fatalf("DRAIN after the other connection closed = %+v, %v", rep, err)
	}
}

// TestServerFlushesOnPartialFrame: buffered bytes that are not yet a
// whole frame end the burst like an empty buffer does — the responses
// so far go out before the read waits for the rest.
func TestServerFlushesOnPartialFrame(t *testing.T) {
	_, _, addr := startServer(t, "orcgc", 4)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReaderSize(c, 64<<10)
	frames := getFrames(2)
	half := len(frames)/2 + 3 // the first GET plus 3 bytes of the second
	if _, err := c.Write(frames[:half]); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadFrame(br, nil); err != nil || resp[0] != StatusNotFound {
		t.Fatalf("first GET response = %x, %v", resp, err)
	}
	if _, err := c.Write(frames[half:]); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadFrame(br, nil); err != nil || resp[0] != StatusNotFound {
		t.Fatalf("second GET response = %x, %v", resp, err)
	}
}

// TestServerSteadyStateZeroAlloc: an instrumented connection answers a
// warm pipelined GET burst with no allocation — requests are read into,
// and responses encoded into, buffers the connection reuses.
func TestServerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	const burst = 32
	st, err := New(Config{Scheme: "orcgc", Shards: 4, Buckets: 256, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	srv.Instrument(obs.NewRegistry())
	for k := uint64(1); k <= burst; k++ {
		if _, err := st.Put(0, k, k); err != nil {
			t.Fatal(err)
		}
	}
	sc, cc := net.Pipe()
	go serveConn(srv, sc)
	defer srv.Shutdown()
	defer cc.Close()

	req := getFrames(burst)
	resp := make([]byte, burst*(4+1+8))
	roundTrip := func() {
		if _, err := cc.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cc, resp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // size the connection's buffers
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("%v allocations per %d-GET burst, want 0", n, burst)
	}
	if resp[4] != StatusOK || binary.LittleEndian.Uint64(resp[5:]) != 1 {
		t.Fatalf("first GET response %x", resp[:13])
	}
}

// TestServerOneGoroutinePerConn: a connection runs on one goroutine, so
// N idle connections add exactly N. Counted from a stack dump — the
// goroutines inside Server.handle, closures it starts included — so
// goroutines of earlier tests still exiting cannot skew the count.
func TestServerOneGoroutinePerConn(t *testing.T) {
	const n = 8
	_, _, addr := startServer(t, "orcgc", 2*n)
	get := getFrames(1)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(get); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(bufio.NewReader(c), nil); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	got := 0
	for _, g := range stacks {
		if strings.Contains(g, "kvstore.(*Server).handle") {
			got++
		}
	}
	if got != n {
		t.Fatalf("%d idle connections run %d goroutines, want %d", n, got, n)
	}
}
