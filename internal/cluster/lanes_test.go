package cluster

import (
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// burstClient dials the proxy with buffers sized for a whole burst, so
// one Flush puts the burst on the wire in one piece.
func burstClient(t *testing.T, addr string, n int) *kvstore.Client {
	t.Helper()
	cl, err := kvstore.Dial(addr, kvstore.WithReadTimeout(30*time.Second), kvstore.WithRetries(3),
		kvstore.WithPipelineDepth(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// laneTotals sums the lane_writes and lane_frames gauges of every
// backend in reg.
func laneTotals(t *testing.T, reg *obs.Registry, backs []*testBackend) (writes, frames int64) {
	t.Helper()
	vals := map[string]int64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	for _, b := range backs {
		w, okw := vals["cluster/backend/"+b.addr+"/lane_writes"]
		f, okf := vals["cluster/backend/"+b.addr+"/lane_frames"]
		if !okw || !okf {
			t.Fatalf("backend %s: lane_writes/lane_frames gauges missing", b.addr)
		}
		writes += w
		frames += f
	}
	return writes, frames
}

// Frames from a client burst share lane writes: the reader only
// queues each frame and wakes the lane's flusher, whose one writev
// carries everything queued since its last write. 32 GETs over two
// backends is 16 frames per backend; the bound leaves room for the
// flusher catching a burst part-way through.
//
// The ratio is asserted only without -race. It compares the flusher's
// wake latency with the reader's time per dispatched frame, and race
// instrumentation stretches the second several-fold: on two cores the
// flusher then wakes after a few frames and reads 3.9–7.3 frames per
// write, at 13–16 with GOMAXPROCS=1, and at 7.8–15.8 without -race.
func TestProxyBurstBatching(t *testing.T) {
	reg := obs.NewRegistry()
	_, backs, addr := startClusterWith(t, []string{"orcgc", "hp"},
		Config{Replicas: 2, Metrics: reg})
	cl := burstClient(t, addr, 32)
	w0, f0 := laneTotals(t, reg, backs)
	for burst := 0; burst < 50; burst++ {
		for i := 0; i < 32; i++ {
			cl.SendGet(uint64(1 + burst*32 + i))
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if _, _, err := cl.RecvGet(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w1, f1 := laneTotals(t, reg, backs)
	writes, frames := w1-w0, f1-f0
	if frames < 50*32 {
		t.Fatalf("lane_frames rose by %d, want ≥ %d", frames, 50*32)
	}
	ratio := float64(frames) / float64(writes)
	t.Logf("%d frames in %d lane writes: %.2f frames/write", frames, writes, ratio)
	if ratio < 4 && !raceEnabled {
		t.Fatalf("%.2f frames per lane write, want ≥ 4", ratio)
	}
}
