package kvstore

import (
	"bufio"
	"io"
	"math/rand"
	"testing"
	"time"
)

// The jittered backoff must stay inside [0.75d, 1.25d) for every u in
// [0, 1): a reconnect herd spreads out, but nobody retries earlier than
// three quarters of the schedule or later than five quarters of it.
func TestJitterBackoffBounds(t *testing.T) {
	bases := []time.Duration{
		time.Millisecond, 50 * time.Millisecond, time.Second, 30 * time.Second,
	}
	for _, d := range bases {
		lo, hi := 3*d/4, 5*d/4
		for _, u := range []float64{0, 0.25, 0.5, 0.9999999} {
			got := jitterBackoff(d, u)
			if got < lo || got > hi {
				t.Errorf("jitterBackoff(%v, %v) = %v, outside [%v, %v]", d, u, got, lo, hi)
			}
		}
		// Endpoints are tight: u=0 hits exactly 0.75d.
		if got := jitterBackoff(d, 0); got != lo {
			t.Errorf("jitterBackoff(%v, 0) = %v, want %v", d, got, lo)
		}
	}
}

// Random sampling: the jitter actually spreads (not a constant), and a
// doubling schedule with jitter stays strictly ordered on average.
func TestJitterBackoffSpreads(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := 100 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 256; i++ {
		w := jitterBackoff(d, r.Float64())
		if w < 3*d/4 || w > 5*d/4 {
			t.Fatalf("sample %v outside bounds", w)
		}
		seen[w] = true
	}
	if len(seen) < 32 {
		t.Errorf("jitter produced only %d distinct waits out of 256 samples", len(seen))
	}
	// Max of one rung is below min of the next: 1.25d < 0.75·2d, so
	// jittered doubling never reorders attempts across rungs.
	if jitterBackoff(d, 0.9999999) >= jitterBackoff(2*d, 0) {
		t.Error("jitter windows of adjacent backoff rungs overlap")
	}
}

// TestPipelinedSendZeroAlloc: every Send* encodes its frame straight
// into the connection's reusable request buffer, so a warm pipelined
// sender allocates nothing per request, budgeted or not.
func TestPipelinedSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	cl := &Client{bw: bufio.NewWriterSize(io.Discard, 64<<10)}
	send := func() {
		cl.SendGet(1)
		cl.SendPut(2, 20)
		cl.SendDel(3)
		cl.SendScan(4, 16)
		cl.SendGetBudget(5, time.Millisecond)
	}
	send() // size the request buffer
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("%v allocations per 5 pipelined sends, want 0", n)
	}
}

// TestBlockingGetZeroAlloc: a blocking Get with a ctx that can never be
// cancelled sends, flushes and parses in the connection's reusable
// buffers and arms nothing, so a warm round trip over loopback
// allocates nothing — the server's side of it included.
func TestBlockingGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	_, _, addr := startServer(t, "orcgc", 4)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(ctx, 1, 10); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if v, ok, err := cl.Get(ctx, 1); err != nil || !ok || v != 10 {
			t.Fatalf("Get = %d, %v, %v", v, ok, err)
		}
	}
	get() // size the connection's buffers
	if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Fatalf("%v allocations per blocking Get, want 0", n)
	}
}
