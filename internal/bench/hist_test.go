package bench

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// The latency figures the benchmark tools print (kvload's summary line,
// kvserver's /metrics) all come from one obs.Hist. These tests pin the
// properties those reports rely on: a stable bucket geometry, a zero
// digest for an idle run, and exact aggregation when several load
// connections record into the same histogram.

// observeSplit records parts[i] from goroutine i into one shared Hist,
// as kvload's connections do, and returns it once every writer is done.
func observeSplit(parts [][]uint64) *obs.Hist {
	var shared obs.Hist
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			<-start
			for _, v := range part {
				shared.Observe(v)
			}
		}(part)
	}
	close(start)
	wg.Wait()
	return &shared
}

func TestHistBucketRoundTrip(t *testing.T) {
	// Every bucket's representative value must map back to that bucket,
	// and bucket indices must be monotone in the value.
	for idx := 0; idx < obs.HistBuckets; idx++ {
		mid := obs.HistBucketMid(idx)
		if got := obs.HistBucketOf(mid); got != idx {
			t.Fatalf("HistBucketOf(HistBucketMid(%d)=%d) = %d", idx, mid, got)
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, math.MaxUint64} {
		idx := obs.HistBucketOf(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= obs.HistBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
		prev = idx
	}
}

func TestHistMerge(t *testing.T) {
	var a, b []uint64
	var whole obs.Hist
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1_000_000))
		if i%2 == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
		whole.Observe(v)
	}
	merged := observeSplit([][]uint64{a, b})
	if merged.Count() != whole.Count() {
		t.Fatalf("merge count mismatch: %d vs %d", merged.Count(), whole.Count())
	}
	ms, ws := merged.Summary(), whole.Summary()
	if ms.MaxUs != ws.MaxUs || ms.MeanUs != ws.MeanUs {
		t.Fatalf("merge max/mean mismatch: %v/%v vs %v/%v", ms.MaxUs, ms.MeanUs, ws.MaxUs, ws.MeanUs)
	}
	if ms.P50Us != ws.P50Us || ms.P99Us != ws.P99Us {
		t.Fatalf("merge quantiles mismatch: %+v vs %+v", ms, ws)
	}
}

func TestHistEmpty(t *testing.T) {
	var h obs.Hist
	if h.Count() != 0 {
		t.Fatal("empty hist count not zero")
	}
	if s := h.Summary(); s != (obs.HistSummary{}) {
		t.Fatalf("empty summary not zero: %+v", s)
	}
	// Writers that record nothing leave the shared histogram empty too.
	if s := observeSplit([][]uint64{nil, nil, nil}).Summary(); s != (obs.HistSummary{}) {
		t.Fatalf("idle writers left a non-zero summary: %+v", s)
	}
}

// Property: splitting an observation stream across goroutines that record
// into one Hist must be indistinguishable from recording the stream from
// one goroutine — for any split. This is what makes the aggregated
// latency of a multi-connection load run exact rather than approximate.
func TestHistMergeEqualsConcatenationProperty(t *testing.T) {
	rng := pcg{s: 0x4157}
	for trial := 0; trial < 32; trial++ {
		nway := int(rng.next()%7) + 2
		parts := make([][]uint64, nway)
		var concat obs.Hist
		n := int(rng.next()%4096) + 64
		for i := 0; i < n; i++ {
			// Shift spreads observations across every magnitude so all
			// three bucket regions (linear, low octaves, high octaves)
			// participate in every trial.
			v := rng.next() >> (rng.next() % 60)
			w := rng.next() % uint64(nway)
			parts[w] = append(parts[w], v)
			concat.Observe(v)
		}
		merged := observeSplit(parts)
		if merged.Count() != concat.Count() {
			t.Fatalf("trial %d (%d-way, %d obs): count %d != %d",
				trial, nway, n, merged.Count(), concat.Count())
		}
		if a, b := merged.Summary(), concat.Summary(); a != b {
			t.Fatalf("trial %d (%d-way, %d obs): merged summary %+v != concatenated %+v",
				trial, nway, n, a, b)
		}
	}
}
