package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterStriping: concurrent adders from distinct tids must not
// lose increments, and Value must sum every stripe.
func TestCounterStriping(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test/ops")
	const workers = 16
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(tid)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter lost increments: %d != %d", got, workers*per)
	}
	if reg.Counter("test/ops") != c {
		t.Fatal("same name must return the same counter")
	}
}

// TestNoOpPath: every handle must be callable through a nil receiver and
// a nil registry — the uninstrumented default.
func TestNoOpPath(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Hist("x")
	reg.GaugeFunc("x", func() int64 { return 1 })
	c.Add(3, 7)
	c.Inc(0)
	g.Set(9)
	g.Add(-2)
	h.Observe(123)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if h.Summary() != (HistSummary{}) {
		t.Fatal("nil hist summary must be empty")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var s *Sampler
	s.Register("x", func() int64 { return 1 })
	s.Start()
	s.Stop()
	if s.Max("x") != 0 {
		t.Fatal("nil sampler must read zero")
	}
}

// TestGaugeMax: Set and Add must both maintain the high-water mark.
func TestGaugeMax(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(5)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 5 {
		t.Fatalf("value=%d max=%d", g.Value(), g.Max())
	}
	g.Add(10)
	if g.Value() != 13 || g.Max() != 13 {
		t.Fatalf("value=%d max=%d", g.Value(), g.Max())
	}
	g.Add(-20)
	if g.Value() != -7 || g.Max() != 13 {
		t.Fatalf("value=%d max=%d", g.Value(), g.Max())
	}
}

// TestHistQuantiles: the concurrent histogram must agree with the
// geometry's error bound (≤ ~3.1% per octave) on known data.
func TestHistQuantiles(t *testing.T) {
	h := NewRegistry().Hist("lat")
	if s := h.Summary(); s != (HistSummary{}) {
		t.Fatalf("empty hist summary not zero: %+v", s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(1); v <= 10000; v++ {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != 80000 {
		t.Fatalf("count %d", s.Count)
	}
	p50 := s.P50Us * 1e3
	if p50 < 5000*0.93 || p50 > 5000*1.07 {
		t.Fatalf("p50 %f out of tolerance around 5000", p50)
	}
	if s.MaxUs*1e3 != 10000 {
		t.Fatalf("max %f != 10000", s.MaxUs*1e3)
	}
	// Bucket round trip at every magnitude.
	for _, v := range []uint64{0, 1, 31, 32, 1000, 1 << 20, 1 << 40, 1<<63 + 12345} {
		b := HistBucketOf(v)
		mid := HistBucketMid(b)
		if HistBucketOf(mid) != b {
			t.Fatalf("bucket midpoint %d of %d maps to a different bucket", mid, v)
		}
	}
}

// TestHistConcurrentObserve: goroutines observing disjoint streams into
// one shared Hist must summarize exactly like one goroutine observing the
// concatenation. kvload records every connection into one Hist and relies
// on this: no observation, sum or max may be lost to a race. A lost update
// shows only when two writers collide inside the window, so a broken
// Observe fails some runs, not every run.
func TestHistConcurrentObserve(t *testing.T) {
	const workers, perWorker = 8, 1 << 15
	streams := make([][]uint64, workers)
	var concat Hist
	for w := range streams {
		next := propRng(uint64(w) + 1)
		for i := 0; i < perWorker; i++ {
			// Shift spreads observations across every magnitude, so the
			// linear region and low and high octaves all take part.
			v := next() >> (next() % 60)
			streams[w] = append(streams[w], v)
			concat.Observe(v)
		}
	}
	var shared Hist
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func(stream []uint64) {
			defer wg.Done()
			<-start
			for _, v := range stream {
				shared.Observe(v)
			}
		}(stream)
	}
	close(start)
	wg.Wait()
	if a, b := shared.Summary(), concat.Summary(); a != b {
		t.Fatalf("summaries diverge:\nshared: %+v\nconcat: %+v", a, b)
	}
	if shared.Count() != workers*perWorker {
		t.Fatalf("count %d, want %d", shared.Count(), workers*perWorker)
	}
}

// TestHistRelativeError: on log-uniform data spanning nanoseconds to
// minutes, every reported quantile is within 5% of the exact one, and the
// maximum is exact.
func TestHistRelativeError(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := uint64(math.Exp(rng.Float64()*25)) + 1
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Summary()
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.5, s.P50Us}, {0.9, s.P90Us}, {0.99, s.P99Us}, {0.999, s.P999Us}} {
		exact := float64(vals[int(c.q*float64(len(vals)))]) / 1e3
		if relErr := math.Abs(c.got-exact) / exact; relErr > 0.05 {
			t.Errorf("q=%v: got %.3fus exact %.3fus relErr %.3f", c.q, c.got, exact, relErr)
		}
	}
	if s.Count != 20000 || s.MaxUs != float64(vals[len(vals)-1])/1e3 {
		t.Fatalf("count %d max %.3fus, want 20000 and %.3fus", s.Count, s.MaxUs, float64(vals[len(vals)-1])/1e3)
	}
}

// TestRegistrySnapshotAndHTTP: text and JSON scrapes must carry every
// metric kind.
func TestRegistrySnapshotAndHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a/ops").Add(0, 42)
	reg.Gauge("a/depth").Set(7)
	reg.GaugeFunc("a/live", func() int64 { return 13 })
	reg.Hist("a/lat").Observe(1500)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	text := sb.String()
	for _, want := range []string{"a/ops 42", "a/depth 7", "a/live 13", "a/lat.count 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text scrape missing %q:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	if flat["a/ops"].(float64) != 42 || flat["a/live"].(float64) != 13 {
		t.Fatalf("json scrape: %v", flat)
	}
	if flat["a/lat"].(map[string]any)["count"].(float64) != 1 {
		t.Fatalf("json hist: %v", flat["a/lat"])
	}
}

// TestSampler: sources sample on cadence, keep a high-water mark, and
// SampleOnce works without Start.
func TestSampler(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Millisecond)
	v := int64(0)
	var mu sync.Mutex
	s.Register("backlog", func() int64 { mu.Lock(); defer mu.Unlock(); return v })

	s.SampleOnce()
	if s.Last("backlog") != 0 {
		t.Fatal("first sample")
	}
	mu.Lock()
	v = 100
	mu.Unlock()
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Last("backlog") != 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	v = 40
	mu.Unlock()
	s.Stop()
	if s.Last("backlog") != 40 {
		t.Fatalf("last = %d, want 40 (final stop sample)", s.Last("backlog"))
	}
	if s.Max("backlog") != 100 {
		t.Fatalf("max = %d, want 100", s.Max("backlog"))
	}
}

// TestTraceRing: concurrent writers, dump coherence, and the on/off
// gate.
func TestTraceRing(t *testing.T) {
	r := NewRing(256)
	lbl := TraceLabel("test-scheme")
	r.Record(KindRetire, lbl, 1, 0xabc) // disabled: must drop
	if r.Len() != 0 {
		t.Fatal("disabled ring recorded an event")
	}
	r.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := KindRetire
				if i%2 == 1 {
					k = KindFree
				}
				r.Record(k, lbl, tid, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8000 {
		t.Fatalf("recorded %d, want 8000", r.Len())
	}
	evs := r.Dump(0)
	if len(evs) == 0 || len(evs) > 256 {
		t.Fatalf("dump returned %d events", len(evs))
	}
	for _, e := range evs {
		if e.Scheme != "test-scheme" {
			t.Fatalf("label decode: %+v", e)
		}
		if e.Kind != "retire" && e.Kind != "free" {
			t.Fatalf("kind decode: %+v", e)
		}
		if e.Tid < 0 || e.Tid > 7 {
			t.Fatalf("tid decode: %+v", e)
		}
	}
	// Most recent events must be present and in order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("dump out of order")
		}
	}
}

// TestTraceHandler: the debug endpoint toggles recording and dumps.
func TestTraceHandler(t *testing.T) {
	r := NewRing(64)
	srv := httptest.NewServer(RingHandler(r))
	defer srv.Close()

	if resp, err := srv.Client().Post(srv.URL+"?trace=on", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if !r.Enabled() {
		t.Fatal("POST ?trace=on did not enable")
	}
	r.Record(KindFree, TraceLabel("h"), 3, 77)

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Enabled  bool    `json:"enabled"`
		Recorded uint64  `json:"recorded"`
		Events   []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Recorded != 1 || len(out.Events) != 1 || out.Events[0].Handle != 77 {
		t.Fatalf("trace dump: %+v", out)
	}
	// GET must not toggle.
	if resp, err := srv.Client().Get(srv.URL + "?trace=off"); err == nil {
		resp.Body.Close()
	}
	if !r.Enabled() {
		t.Fatal("GET ?trace=off must not toggle")
	}
}
