package kvstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The dial backoff doubling must stop at maxDialBackoff: a generous
// retry budget stretches into more attempts, not exponentially longer
// sleeps. Before the cap, 20 retries meant a final wait of 50ms<<19 ≈
// 7 hours.
func TestNextBackoffCap(t *testing.T) {
	d := 50 * time.Millisecond
	for i := 0; i < 40; i++ {
		d = nextBackoff(d)
		if d > maxDialBackoff {
			t.Fatalf("backoff %v exceeds cap %v after %d doublings", d, maxDialBackoff, i+1)
		}
		if d <= 0 {
			t.Fatalf("backoff overflowed to %v after %d doublings", d, i+1)
		}
	}
	if d != maxDialBackoff {
		t.Fatalf("backoff settled at %v, want cap %v", d, maxDialBackoff)
	}
	// The cap also swallows overflow from a pathological starting value.
	if got := nextBackoff(maxDialBackoff); got != maxDialBackoff {
		t.Fatalf("nextBackoff(cap) = %v, want %v", got, maxDialBackoff)
	}
	if got := nextBackoff(time.Duration(1) << 62); got != maxDialBackoff {
		t.Fatalf("nextBackoff(overflowing) = %v, want %v", got, maxDialBackoff)
	}
}

// Deterministic admission-policy unit tests: the struct is exercised
// directly, no wire or clock races involved beyond expired timers.
func TestAdmissionPolicy(t *testing.T) {
	var a admission
	a.init(1, 2)

	// Free slot + live deadline: admitted.
	if st := a.acquire(time.Now().Add(time.Minute), nil); st != StatusOK {
		t.Fatalf("acquire with free slot = %d", st)
	}
	a.release()

	// Free slot + already-expired deadline: the post-token re-check
	// refuses and returns the slot.
	if st := a.acquire(time.Now().Add(-time.Millisecond), nil); st != StatusDeadlineExceeded {
		t.Fatalf("acquire with expired deadline = %d, want %d", st, StatusDeadlineExceeded)
	}
	if got := a.expired.Load(); got != 1 {
		t.Fatalf("expired = %d after deadline refusal", got)
	}
	if len(a.slots) != 1 {
		t.Fatal("refused acquire leaked the slot")
	}

	// Slot taken + deadline: queue until the deadline fires.
	<-a.slots
	if st := a.acquire(time.Now().Add(5*time.Millisecond), nil); st != StatusDeadlineExceeded {
		t.Fatalf("queued acquire past deadline = %d, want %d", st, StatusDeadlineExceeded)
	}
	if got := a.expired.Load(); got != 2 {
		t.Fatalf("expired = %d after queue-wait expiry", got)
	}

	// Slot taken + queue full: the next arrival is shed immediately.
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st := a.acquire(time.Time{}, nil); st == StatusOK {
				admitted.Add(1)
				a.release()
			}
		}()
	}
	for a.waiters.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if st := a.acquire(time.Now().Add(time.Minute), nil); st != StatusOverloaded {
		t.Fatalf("acquire with full queue = %d, want %d", st, StatusOverloaded)
	}
	if got := a.shed.Load(); got != 1 {
		t.Fatalf("shed = %d after overload refusal", got)
	}
	a.release() // hand the held slot to the queued waiters
	wg.Wait()
	if admitted.Load() != 2 {
		t.Fatalf("only %d of 2 queued waiters were admitted", admitted.Load())
	}
	if len(a.slots) != 1 {
		t.Fatal("slot lost after queued waiters drained")
	}
}

// A ctx deadline rides the wire as a budget with no handshake first,
// and a generous one lets the ops succeed end to end.
func TestBudgetedRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, "orcgc", 4)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if b, err := cl.budgetFor(dctx); err != nil || b <= 0 {
		t.Fatalf("budgetFor = %v, %v; want a positive budget", b, err)
	}
	if ins, err := cl.Put(dctx, 7, 70); err != nil || !ins {
		t.Fatalf("budgeted Put = %v, %v", ins, err)
	}
	if v, ok, err := cl.Get(dctx, 7); err != nil || !ok || v != 70 {
		t.Fatalf("budgeted Get = %d, %v, %v", v, ok, err)
	}
}

// A budgeted op that expires while queued behind a saturated inflight
// bound is answered StatusDeadlineExceeded instead of executing: the
// Put provably has no effect.
func TestBudgetExpiresInQueue(t *testing.T) {
	st, err := New(Config{Scheme: "orcgc", Shards: 4, Buckets: 256, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, WithMaxInflight(1), WithMaxQueue(4))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hold the only inflight slot so the op must queue until its budget
	// runs out. (Same-package test: the slot channel is the admission
	// token pool.)
	<-srv.adm.slots

	cl.SendPutBudget(99, 1, 30*time.Millisecond)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RecvPut(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued-past-budget Put err = %v, want ErrDeadlineExceeded", err)
	}
	if got := srv.AdmissionStats().DeadlineExceeded; got != 1 {
		t.Fatalf("DeadlineExceeded = %d", got)
	}

	srv.adm.slots <- struct{}{} // restore the slot
	if _, ok, err := cl.Get(ctx, 99); err != nil || ok {
		t.Fatalf("expired Put left a value behind: found=%v err=%v", ok, err)
	}
}

// With the inflight slot held and the waiter queue full, the next
// arrival is shed with StatusOverloaded — fast-fail, not latency
// collapse — and the refusal is visible on both sides of the wire.
func TestShedWhenQueueFull(t *testing.T) {
	st, err := New(Config{Scheme: "orcgc", Shards: 4, Buckets: 256, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, WithMaxInflight(1), WithMaxQueue(2))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	dialT := func() *Client {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	<-srv.adm.slots // saturate: no op can execute until restored

	// Two connections park in the admission queue (no budget → they
	// wait for the slot indefinitely).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl := dialT()
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			if _, err := cl.Put(ctx, k, k); err != nil {
				t.Errorf("queued Put(%d): %v", k, err)
			}
		}(uint64(i + 1))
	}
	for srv.adm.waiters.Load() != 2 {
		time.Sleep(time.Millisecond)
	}

	// The third arrival finds the queue full and is shed on the spot.
	cl3 := dialT()
	t0 := time.Now()
	_, err = cl3.Put(ctx, 3, 3)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue Put err = %v, want ErrOverloaded", err)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("shed took %v — shedding must be immediate", el)
	}
	if got := srv.AdmissionStats().Shed; got != 1 {
		t.Fatalf("Shed = %d", got)
	}

	srv.adm.slots <- struct{}{} // let the queued writers through
	wg.Wait()
	if _, ok, _ := cl3.Get(ctx, 3); ok {
		t.Fatal("shed Put executed anyway")
	}
	for _, k := range []uint64{1, 2} {
		if v, ok, err := cl3.Get(ctx, k); err != nil || !ok || v != k {
			t.Fatalf("queued Put(%d) lost: %d, %v, %v", k, v, ok, err)
		}
	}
}

// The -race saturation test: 16 pipelining connections against a
// 2-slot/2-waiter server. Every server-side refusal must surface as
// exactly one client-side ErrOverloaded or ErrDeadlineExceeded — the
// ledgers match to the op — every accepted op completes, and the store
// drains back to its leak baseline afterwards.
func TestSaturationAccounting(t *testing.T) {
	const conns = 16
	const opsPer = 300
	const pipeline = 8
	st, err := New(Config{Scheme: "orcgc", Shards: 4, Buckets: 256, MaxThreads: conns + 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, WithMaxInflight(2), WithMaxQueue(2))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// The store executes an op in microseconds, so 16 connections alone
	// cannot reliably fill 2 slots + 2 waiters. Hold both slots for the
	// opening phase — the shape of two wedged ops — so the fleet
	// provably runs into queue-full sheds and queue-wait expiries, then
	// hand the slots back mid-run so the tail completes normally.
	<-srv.adm.slots
	<-srv.adm.slots
	go func() {
		time.Sleep(60 * time.Millisecond)
		srv.adm.slots <- struct{}{}
		srv.adm.slots <- struct{}{}
	}()

	var shed, expired, completed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			count := func(err error) bool {
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, ErrDeadlineExceeded):
					expired.Add(1)
				default:
					t.Errorf("worker %d: %v", seed, err)
					return false
				}
				return true
			}
			base := seed * 1000
			x := seed + 1
			sent := make([]uint8, 0, pipeline)
			drain := func() bool {
				if err := cl.Flush(); err != nil {
					t.Error(err)
					return false
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
					}
					if !count(err) {
						return false
					}
				}
				sent = sent[:0]
				return true
			}
			for i := 0; i < opsPer; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := base + x%256 + 1
				const budget = 20 * time.Millisecond
				switch x >> 61 & 3 {
				case 0:
					cl.SendGetBudget(k, budget)
					sent = append(sent, OpGet)
				case 1, 2:
					cl.SendPutBudget(k, x, budget)
					sent = append(sent, OpPut)
				default:
					cl.SendDelBudget(k, budget)
					sent = append(sent, OpDel)
				}
				if len(sent) == pipeline && !drain() {
					return
				}
			}
			drain()
		}(uint64(w))
	}
	wg.Wait()

	as := srv.AdmissionStats()
	if as.Shed != shed.Load() {
		t.Errorf("server shed_total %d != client-observed ErrOverloaded %d", as.Shed, shed.Load())
	}
	if as.DeadlineExceeded != expired.Load() {
		t.Errorf("server deadline_exceeded_total %d != client-observed ErrDeadlineExceeded %d",
			as.DeadlineExceeded, expired.Load())
	}
	if shed.Load() == 0 {
		t.Error("16 connections vs 2 held slots + 2 waiters produced zero sheds")
	}
	if total := completed.Load() + shed.Load() + expired.Load(); total != conns*opsPer {
		t.Errorf("ledger accounts for %d of %d ops", total, conns*opsPer)
	}
	if completed.Load() == 0 {
		t.Error("no op completed after the slots were restored — admission starved everything")
	}
	t.Logf("completed=%d shed=%d expired=%d", completed.Load(), shed.Load(), expired.Load())

	srv.Shutdown()
	<-done
	rep := st.DrainAndCheck(0)
	if !rep.LeakOK {
		t.Fatalf("leak check failed after saturation: %+v", rep)
	}
}

// slowEchoServer answers every GET in arrival order with value =
// key*10, pausing before each response — long enough for a test to
// cancel one op while another waits behind it.
func slowEchoServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReaderSize(c, 64<<10)
				var buf []byte
				for {
					p, err := ReadFrame(br, buf)
					if err != nil {
						return
					}
					buf = p
					key := binary.LittleEndian.Uint64(p[1:])
					time.Sleep(delay)
					resp := []byte{StatusOK}
					resp = appendU64(resp, key*10)
					if _, err := c.Write(appendFrame(nil, resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// cancelAfter returns a ctx that is cancelled d from now.
func cancelAfter(t *testing.T, d time.Duration) context.Context {
	cctx, cancel := context.WithCancel(ctx)
	time.AfterFunc(d, cancel)
	t.Cleanup(cancel)
	return cctx
}

// Regression: cancelling one blocking op must not poison the ops that
// follow it on the connection. The aborted read consumed nothing, so
// Get(1)'s response is still on the wire: Get(2) must discard it before
// reading its own, and the poisoned read deadline must be lifted.
func TestCancellationDoesNotPoisonNeighbour(t *testing.T) {
	addr := slowEchoServer(t, 120*time.Millisecond)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, _, err := cl.Get(cancelAfter(t, 20*time.Millisecond), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get err = %v, want context.Canceled in chain", err)
	}
	if v, ok, err := cl.Get(ctx, 2); err != nil || !ok || v != 20 {
		t.Fatalf("Get after a cancelled Get = %d, %v, %v; want 20", v, ok, err)
	}
	if v, ok, err := cl.Get(ctx, 3); err != nil || !ok || v != 30 {
		t.Fatalf("post-cancellation Get = %d, %v, %v; want 30", v, ok, err)
	}
}

// TestCancelledOpsOweFrames: each cancelled op leaves its response
// owed, and the next op that reaches the wire discards them all, in
// order, before reading its own.
func TestCancelledOpsOweFrames(t *testing.T) {
	addr := slowEchoServer(t, 120*time.Millisecond)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for key := uint64(1); key <= 2; key++ {
		if _, _, err := cl.Get(cancelAfter(t, 20*time.Millisecond), key); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get(%d) err = %v, want context.Canceled in chain", key, err)
		}
	}
	if cl.owed != 2 {
		t.Fatalf("owed = %d after two cancelled ops, want 2", cl.owed)
	}
	if v, ok, err := cl.Get(ctx, 3); err != nil || !ok || v != 30 {
		t.Fatalf("Get after two cancelled ops = %d, %v, %v; want 30", v, ok, err)
	}
	if cl.owed != 0 {
		t.Fatalf("owed = %d after a completed Get, want 0", cl.owed)
	}
}
