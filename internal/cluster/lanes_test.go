package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"sync/atomic"
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

// sendBursts sends n bursts of size GETs, each put on the wire by one
// Flush, and reads every answer before the next burst.
func sendBursts(t *testing.T, cl *kvstore.Client, n, size int) {
	t.Helper()
	for burst := 0; burst < n; burst++ {
		for i := 0; i < size; i++ {
			cl.SendGet(uint64(1 + burst*size + i))
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			if _, _, err := cl.RecvGet(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Frames from a client burst share lane writes: the reader queues each
// frame on its lane and writes every lane it queued on once, before it
// parks. 32 GETs over two backends is 16 frames per backend per burst;
// the bound leaves room for the one-frame writes of hedges, which fire
// from a timer and write at once.
func TestProxyBurstBatching(t *testing.T) {
	reg := obs.NewRegistry()
	_, backs, addr := startClusterWith(t, []string{"orcgc", "hp"},
		Config{Replicas: 2, Metrics: reg})
	cl := burstClient(t, addr, 32)
	w0, f0 := laneTotals(t, reg, backs)
	sendBursts(t, cl, 50, 32)
	w1, f1 := laneTotals(t, reg, backs)
	writes, frames := w1-w0, f1-f0
	if frames < 50*32 {
		t.Fatalf("lane_frames rose by %d, want ≥ %d", frames, 50*32)
	}
	ratio := float64(frames) / float64(writes)
	t.Logf("%d frames in %d lane writes: %.2f frames/write", frames, writes, ratio)
	if ratio < 4 {
		t.Fatalf("%.2f frames per lane write, want ≥ 4", ratio)
	}
}

// With one backend at R=1 no hedge can fire, so the reader is the
// lane's only writer: each 32-GET burst is exactly one lane write.
func TestProxyBurstOneWritePerLane(t *testing.T) {
	reg := obs.NewRegistry()
	_, backs, addr := startClusterWith(t, []string{"orcgc"}, Config{Replicas: 1, Metrics: reg})
	cl := burstClient(t, addr, 32)
	w0, f0 := laneTotals(t, reg, backs)
	sendBursts(t, cl, 50, 32)
	w1, f1 := laneTotals(t, reg, backs)
	if writes, frames := w1-w0, f1-f0; writes != 50 || frames != 50*32 {
		t.Fatalf("50 bursts of 32 GETs took %d lane writes carrying %d frames, want 50 and %d", writes, frames, 50*32)
	}
}

// stubKV serves the kvstore wire on a loopback port. STATS answers
// with a stub scheme; a GET answers value 7 unless hold is set, in
// which case it is read and never answered.
func stubKV(t *testing.T, hold *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stats, _ := json.Marshal(kvstore.Stats{Scheme: "stub"})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var req []byte
				for {
					payload, err := kvstore.ReadFrame(br, req)
					if err != nil {
						return
					}
					req = payload
					var out []byte
					switch payload[0] &^ kvstore.OpFlagBudget {
					case kvstore.OpStats:
						out = append([]byte{kvstore.StatusOK}, stats...)
					case kvstore.OpGet:
						if hold.Load() {
							continue
						}
						out = kvstore.AppendU64([]byte{kvstore.StatusOK}, 7)
					default:
						out = []byte{kvstore.StatusErr}
					}
					if _, err := c.Write(kvstore.AppendFrame(nil, out)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A continuation writes its own frame. The primary holds its reply and
// the client sends nothing more, so its reader stays parked: only the
// timer-fired hedge's own write can put the hedge on the secondary's
// wire and answer the GET.
func TestProxyHedgeWritesWithoutReader(t *testing.T) {
	var hold [2]atomic.Bool
	p, addr := startProxy(t, Config{Backends: []string{stubKV(t, &hold[0]), stubKV(t, &hold[1])}, Replicas: 2})
	const key = 42
	cands := p.readSet(key, nil)
	if len(cands) != 2 {
		t.Fatalf("key %d has %d read candidates, want 2", key, len(cands))
	}
	for i, a := range p.cfg.Backends {
		hold[i].Store(a == cands[0].addr)
	}
	cl := proxyClient(t, addr)
	gctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if v, ok, err := cl.Get(gctx, key); err != nil || !ok || v != 7 {
		t.Fatalf("Get with a silent primary = %d, %v, %v", v, ok, err)
	}
	if info := p.Snapshot(); info.HedgesFired != 1 || info.HedgeWins != 1 {
		t.Fatalf("hedges fired %d, won %d; want 1 and 1", info.HedgesFired, info.HedgeWins)
	}
}
