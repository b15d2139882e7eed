package kvstore

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// startInstrumentedServer is startServer with the observability layer
// wired: the store and server both report into one registry.
func startInstrumentedServer(t *testing.T, scheme string, maxThreads int) (*Store, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := New(Config{Scheme: scheme, Shards: 4, Buckets: 256, MaxThreads: maxThreads, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	srv.Instrument(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return st, ln.Addr().String(), reg
}

func scrape(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	return flat
}

// TestMetricsScrapeUnderLoad churns the store through 8 pipelined
// clients while scraping /metrics concurrently, for both the automatic
// scheme (orcgc) and a manual one (hp). Run under -race this doubles as
// a data-race check on every gauge func; the assertions check that ops
// counters are monotone across scrapes and that the final gauges agree
// with the store's own Stats()/arena figures at drain.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	for _, scheme := range []string{"orcgc", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			st, addr, reg := startInstrumentedServer(t, scheme, 16)
			msrv := httptest.NewServer(reg.Handler())
			defer msrv.Close()

			const clients = 8
			const opsPer = 800
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					cl, err := Dial(addr,
						WithDialTimeout(5*time.Second),
						WithReadTimeout(30*time.Second),
						WithPipelineDepth(64),
						WithRetries(3),
					)
					if err != nil {
						t.Error(err)
						return
					}
					defer cl.Close()
					const window = 64
					inflight := 0
					drain := func(n int) {
						for ; n > 0; n-- {
							if _, err := cl.recv(); err != nil {
								t.Error(err)
								return
							}
							inflight--
						}
					}
					x := seed
					for n := 0; n < opsPer; n++ {
						x = x*6364136223846793005 + 1442695040888963407
						key := x%2048 + MinKey
						switch x % 4 {
						case 0:
							cl.SendPut(key, x)
						case 1:
							cl.SendGet(key)
						case 2:
							cl.SendDel(key)
						default:
							cl.SendScan(key, 16)
						}
						inflight++
						if inflight == window {
							cl.Flush()
							drain(inflight)
						}
					}
					cl.Flush()
					drain(inflight)
				}(uint64(w + 1))
			}

			// Concurrent scraper: ops counters must be monotone scrape
			// over scrape while the churn runs.
			scrapeDone := make(chan struct{})
			go func() {
				defer close(scrapeDone)
				var lastOps float64
				for i := 0; i < 20; i++ {
					flat := scrape(t, msrv.URL)
					var ops float64
					for _, k := range []string{"get", "put", "del", "scan"} {
						if v, ok := flat["kv/server/ops/"+k].(float64); ok {
							ops += v
						}
					}
					if ops < lastOps {
						t.Errorf("ops went backwards: %f < %f", ops, lastOps)
						return
					}
					lastOps = ops
					time.Sleep(2 * time.Millisecond)
				}
			}()
			wg.Wait()
			<-scrapeDone

			// Quiescent: drain through the store and cross-check gauges
			// against the store's own accounting.
			rep := st.DrainAndCheck(0)
			if !rep.LeakOK {
				t.Fatalf("drain leak check failed: %+v", rep)
			}
			flat := scrape(t, msrv.URL)
			if got := int64(flat["kv/live"].(float64)); got != st.Stats().Live {
				t.Fatalf("kv/live gauge %d != store live %d", got, st.Stats().Live)
			}
			if got := int64(flat["kv/retired_not_freed"].(float64)); got != st.RetiredNotFreed() {
				t.Fatalf("kv/retired_not_freed gauge %d != %d", got, st.RetiredNotFreed())
			}
			var totalOps float64
			for _, k := range []string{"get", "put", "del", "scan"} {
				totalOps += flat["kv/server/ops/"+k].(float64)
			}
			if int(totalOps) != clients*opsPer {
				t.Fatalf("ops counters sum %d, want %d", int(totalOps), clients*opsPer)
			}
			if scheme == "hp" {
				// Manual schemes also report per-index reclaim gauges.
				if _, ok := flat["reclaim/shard0/map/retired"]; !ok {
					t.Fatalf("missing per-index reclaim gauges in %v", flat)
				}
				// Conservation at quiescence: retired == freed + pending
				// summed over every index.
				var retired, freed, pending float64
				for k, v := range flat {
					f, _ := v.(float64)
					switch {
					case len(k) > 8 && k[:8] == "reclaim/" && k[len(k)-8:] == "/retired":
						retired += f
					case len(k) > 8 && k[:8] == "reclaim/" && k[len(k)-6:] == "/freed":
						freed += f
					case len(k) > 8 && k[:8] == "reclaim/" && k[len(k)-8:] == "/pending":
						pending += f
					}
				}
				if retired != freed+pending {
					t.Fatalf("conservation violated: retired %f != freed %f + pending %f", retired, freed, pending)
				}
			}
			// Arena gauges must agree with the summed SideStats.
			var live, slots int64
			for _, s := range st.Stats().Sides {
				live += s.Live
				slots += int64(s.Slots)
			}
			if got := int64(flat["kv/arena/live"].(float64)); got != live {
				t.Fatalf("kv/arena/live gauge %d != %d", got, live)
			}
			if got := int64(flat["kv/arena/slots"].(float64)); got != slots {
				t.Fatalf("kv/arena/slots gauge %d != %d", got, slots)
			}
		})
	}
}

// TestDialWithRetry: a server that comes up late is reached through the
// dial retry loop.
func TestDialWithRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening now

	srvCh := make(chan *Server, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		st, err := New(Config{Scheme: "orcgc", Shards: 2, Buckets: 64, MaxThreads: 4})
		if err != nil {
			t.Error(err)
			srvCh <- nil
			return
		}
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Error(err) // port was re-taken; rare, treat as failure
			srvCh <- nil
			return
		}
		srv := NewServer(st)
		go srv.Serve(ln2)
		srvCh <- srv
	}()
	t.Cleanup(func() {
		if srv := <-srvCh; srv != nil {
			srv.Shutdown()
		}
	})

	cl, err := Dial(addr, WithRetries(8), WithRetryBackoff(40*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial never reached the late server: %v", err)
	}
	if ins, err := cl.Put(ctx, 7, 7); err != nil || !ins {
		t.Fatalf("put through retried dial: %v %v", ins, err)
	}
	cl.Close()
}

// TestDialRetryBudget: exhausted retries return promptly — the loop
// neither sleeps after the final failed attempt nor waits out backoffs
// the budget cannot afford — and the last dial error comes back wrapped
// so callers can still errors.As their way to the net.OpError.
func TestDialRetryBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // connection refused from here on

	t0 := time.Now()
	_, err = Dial(addr,
		WithRetries(1000),
		WithRetryBackoff(20*time.Millisecond),
		WithRetryBudget(100*time.Millisecond),
	)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("Dial succeeded against a dead address")
	}
	// 1000 retries at a doubling 20ms backoff would take minutes; the
	// budget must cut it off around the 100ms mark (generous ceiling for
	// slow CI).
	if elapsed > 2*time.Second {
		t.Fatalf("exhausted retries took %v, budget was 100ms", elapsed)
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("wrapped error lost the net.OpError: %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("error does not name the budget: %v", err)
	}

	// Exhaustion by count wraps too, and still returns without a
	// trailing sleep: 2 extra attempts at 10ms/20ms backoff must come
	// back well before a third (40ms) backoff could have run.
	t0 = time.Now()
	_, err = Dial(addr, WithRetries(2), WithRetryBackoff(10*time.Millisecond))
	elapsed = time.Since(t0)
	if err == nil {
		t.Fatal("Dial succeeded against a dead address")
	}
	if !errors.As(err, &opErr) {
		t.Fatalf("wrapped error lost the net.OpError: %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report the attempt count: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("count-exhausted retries took %v", elapsed)
	}

	// A zero-retry failure stays a plain net error (no wrapping noise).
	_, err = Dial(addr)
	if err == nil {
		t.Fatal("Dial succeeded against a dead address")
	}
	if !errors.As(err, &opErr) {
		t.Fatalf("first-attempt failure not a net error: %v", err)
	}
}
