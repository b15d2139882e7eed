package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/kvstore"
)

// RebalanceReport is the CLUSTER_ADD / CLUSTER_DRAIN / CLUSTER_REMOVE
// response: how much data a topology change actually shuffled.
type RebalanceReport struct {
	Addr       string `json:"addr"`
	KeysMoved  uint64 `json:"keys_moved"`
	DurationMs int64  `json:"duration_ms"`
}

func getReqB(dst []byte, k uint64) []byte {
	return kvstore.AppendU64(append(dst[:0], kvstore.OpGet), k)
}

func putReqB(dst []byte, k, v uint64) []byte {
	return kvstore.AppendU64(kvstore.AppendU64(append(dst[:0], kvstore.OpPut), k), v)
}

func delReqB(dst []byte, k uint64) []byte {
	return kvstore.AppendU64(append(dst[:0], kvstore.OpDel), k)
}

// placeTopo is the placement rebalancing works toward: the pending
// topology when a migration is in flight, else the current one.
func (p *Proxy) placeTopo() *topology {
	if nt := p.next.Load(); nt != nil {
		return nt
	}
	return p.topo.Load()
}

// authoritativeGet reads key from the first read-eligible replica that
// answers, through the backend's lane so the read orders behind every
// client write already submitted for the key. This is the value
// rebalancing propagates: by the ack invariant it reflects all acked
// writes.
func (p *Proxy) authoritativeGet(k uint64) (uint64, bool, error) {
	t := p.topo.Load()
	var idbuf [maxReplicas]int32
	var req [9]byte
	reqb := getReqB(req[:0], k)
	var resp [9]byte
	for _, id := range t.ring.Lookup(k, p.replicas(), idbuf[:0]) {
		b := t.backs[id]
		if !b.readEligible() {
			continue
		}
		r, err := b.roundTrip(reqb, resp[:0])
		if err != nil {
			continue
		}
		switch r[0] {
		case kvstore.StatusOK:
			v, ok := kvstore.PayloadU64(r, 1)
			if !ok {
				return 0, false, errors.New("cluster: short GET response")
			}
			return v, true, nil
		case kvstore.StatusNotFound:
			return 0, false, nil
		}
	}
	return 0, false, errNoReplica
}

// forEachKey enumerates the union of the sources' key spaces in
// ascending order via resumable SCAN windows: each window is scattered
// to every source and merged with mergeScan's horizon rule, and the
// cursor resumes just past the last key visited. fn runs on the
// caller's goroutine (copyKeyTo blocks), never on a lane receiver. A
// source that fails its window fails the walk: a key only it holds
// would be skipped.
func (p *Proxy) forEachKey(sources []*backend, fn func(k uint64) error) error {
	if len(sources) == 0 {
		return errNoReplica
	}
	var (
		reqb   [13]byte
		keys   []kv
		more   bool
		failed int
	)
	for cursor := kvstore.MinKey; ; {
		scatterWait(sources, scanReq(reqb[:0], cursor, kvstore.MaxScanLimit), func(legs []*call) {
			keys, more, failed = mergeScan(legs, kvstore.MaxScanLimit, keys)
		})
		if failed > 0 {
			return errors.New("cluster: rebalance scan lost a source")
		}
		for _, e := range keys {
			if err := fn(e.k); err != nil {
				return err
			}
		}
		if !more || keys[len(keys)-1].k >= kvstore.MaxKey {
			return nil
		}
		cursor = keys[len(keys)-1].k + 1
	}
}

// copyKeyTo copies the authoritative value of k to backend b under the
// key's stripe lock. Returns 1 if the copy actually inserted (the
// "keys moved" unit). A key deleted concurrently is skipped — the
// stripe lock makes the read-then-put atomic against client writes, so
// no stale value can resurrect.
func (p *Proxy) copyKeyTo(k uint64, b *backend) (uint64, error) {
	stripe := &p.locks[k&(stripeCount-1)]
	stripe.Lock()
	defer stripe.Unlock()
	v, found, err := p.authoritativeGet(k)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, nil
	}
	var req [17]byte
	var resp [2]byte
	r, err := b.roundTrip(putReqB(req[:0], k, v), resp[:0])
	if err != nil {
		return 0, err
	}
	if len(r) >= 2 && r[0] == kvstore.StatusOK && r[1] == 1 {
		return 1, nil
	}
	return 0, nil
}

// deleteKeyOn removes k from backend b if the authoritative view says
// it should not be there (or pred says b no longer owns it).
func (p *Proxy) deleteKeyOn(k uint64, b *backend, ownership bool) error {
	stripe := &p.locks[k&(stripeCount-1)]
	stripe.Lock()
	defer stripe.Unlock()
	if ownership {
		_, found, err := p.authoritativeGet(k)
		if err != nil {
			return err
		}
		if found {
			return nil
		}
	}
	var req [9]byte
	_, err := b.roundTrip(delReqB(req[:0], k), nil)
	return err
}

func backsContain(t *topology, ids []int32, b *backend) bool {
	for _, id := range ids {
		if t.backs[id] == b {
			return true
		}
	}
	return false
}

// resync brings a rejoining or newly added backend up to date before it
// may serve reads: every key whose placement includes b gets the
// authoritative value copied in, then the reconcile pass deletes keys b
// still holds from before it went away — either because ownership moved
// or because the key was deleted while b was gone. Runs concurrently
// with client traffic; stripe locks plus each backend's one lane
// serialize it against writes. Called by the backend monitor (rejoins)
// and by AddBackend (joins, through the monitor's first connect).
func (p *Proxy) resync(b *backend) error {
	var sources []*backend
	for _, s := range p.topo.Load().backs {
		if s != b && s.readEligible() {
			sources = append(sources, s)
		}
	}
	if len(sources) == 0 {
		// Nothing read-eligible to copy from: nothing acked is
		// recoverable anyway, so b's own contents are the best state.
		b.syncMoved.Store(0)
		return nil
	}
	var moved uint64
	var idbuf [maxReplicas]int32
	err := p.forEachKey(sources, func(k uint64) error {
		pt := p.placeTopo()
		if !backsContain(pt, pt.ring.Lookup(k, p.replicas(), idbuf[:0]), b) {
			return nil
		}
		n, err := p.copyKeyTo(k, b)
		moved += n
		return err
	})
	if err != nil {
		return err
	}
	// Reconcile: b's leftover keys that the cluster no longer has (or
	// that b no longer owns) must go, or a later read could resurrect a
	// deleted key once b turns healthy.
	err = p.forEachKey([]*backend{b}, func(k uint64) error {
		pt := p.placeTopo()
		owns := backsContain(pt, pt.ring.Lookup(k, p.replicas(), idbuf[:0]), b)
		if !owns {
			return p.deleteKeyOn(k, b, false)
		}
		return p.deleteKeyOn(k, b, true)
	})
	if err != nil {
		return err
	}
	b.syncMoved.Store(moved)
	p.keysMoved.Add(moved)
	return nil
}

// AddBackend joins addr to the ring: the node connects, resyncs its
// share of the key space (writes already fan to it mid-migration), and
// only then enters the read path when the pending topology is swapped
// in. Blocks until the node is healthy, the sync deadline passes, or
// ctx is cancelled — cancellation rolls the pending topology back and
// leaves the ring as it was.
func (p *Proxy) AddBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	start := time.Now()
	p.tmu.Lock()
	if p.next.Load() != nil {
		p.tmu.Unlock()
		return RebalanceReport{}, errBusy
	}
	t := p.topo.Load()
	if t.ring.NodeID(addr) >= 0 {
		p.tmu.Unlock()
		return RebalanceReport{}, fmt.Errorf("cluster: backend %s already present", addr)
	}
	b := newBackend(p, addr, p.reg.Hist("cluster/backend/"+addr+"/rtt"))
	p.byAddr[addr] = b
	nodes := append(append([]string{}, t.ring.Nodes...), addr)
	backs := append(append([]*backend{}, t.backs...), b)
	nt := &topology{ring: BuildRing(nodes, p.cfg.VNodes), backs: backs}
	p.next.Store(nt)
	p.registerBackendMetrics(b)
	b.start(false)
	p.tmu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for b.state.Load() != stateHealthy {
		if err := ctx.Err(); err != nil || time.Now().After(deadline) {
			p.tmu.Lock()
			p.next.Store(nil)
			delete(p.byAddr, addr)
			p.tmu.Unlock()
			b.stopAndWait()
			if err != nil {
				return RebalanceReport{}, fmt.Errorf("cluster: add %s: %w", addr, context.Cause(ctx))
			}
			return RebalanceReport{}, fmt.Errorf("cluster: backend %s did not sync in time", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.tmu.Lock()
	p.topo.Store(nt)
	p.next.Store(nil)
	p.tmu.Unlock()
	return RebalanceReport{
		Addr:       addr,
		KeysMoved:  b.syncMoved.Load(),
		DurationMs: time.Since(start).Milliseconds(),
	}, nil
}

// DrainBackend hands addr's keys off to the ring minus addr, then drops
// it from the topology. The node keeps serving reads as a member until
// every key it owned exists on its promoted replacement, so there is no
// window where a read-eligible replica lacks acked data. The backend
// process itself stays up — its own DRAIN/leak check is the operator's
// last step.
func (p *Proxy) DrainBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	return p.retire(ctx, addr)
}

// RemoveBackend drops addr and re-replicates its keys from the
// surviving replicas. Meant for a node that is already dead: the node
// is simply skipped as a copy source (it is not read-eligible), and the
// survivors rebuild full replication.
func (p *Proxy) RemoveBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	return p.retire(ctx, addr)
}

func (p *Proxy) retire(ctx context.Context, addr string) (RebalanceReport, error) {
	start := time.Now()
	p.tmu.Lock()
	if p.next.Load() != nil {
		p.tmu.Unlock()
		return RebalanceReport{}, errBusy
	}
	t := p.topo.Load()
	id := t.ring.NodeID(addr)
	if id < 0 {
		p.tmu.Unlock()
		return RebalanceReport{}, fmt.Errorf("cluster: unknown backend %s", addr)
	}
	if len(t.ring.Nodes) <= 1 {
		p.tmu.Unlock()
		return RebalanceReport{}, errors.New("cluster: cannot remove the last backend")
	}
	b := t.backs[id]
	nodes := make([]string, 0, len(t.ring.Nodes)-1)
	backs := make([]*backend, 0, len(t.backs)-1)
	for i, n := range t.ring.Nodes {
		if int32(i) == id {
			continue
		}
		nodes = append(nodes, n)
		backs = append(backs, t.backs[i])
	}
	nt := &topology{ring: BuildRing(nodes, p.cfg.VNodes), backs: backs}
	p.next.Store(nt)
	p.tmu.Unlock()

	moved, err := p.handoff(ctx, t, nt)
	p.tmu.Lock()
	p.next.Store(nil)
	if err == nil {
		p.topo.Store(nt)
		delete(p.byAddr, addr)
	}
	p.tmu.Unlock()
	if err != nil {
		return RebalanceReport{}, fmt.Errorf("cluster: handoff from %s: %w", addr, err)
	}
	b.stopAndWait()
	p.keysMoved.Add(moved)
	return RebalanceReport{
		Addr:       addr,
		KeysMoved:  moved,
		DurationMs: time.Since(start).Milliseconds(),
	}, nil
}

// handoff copies every key whose pending replica set gained a member to
// that member, sourcing values authoritatively under the key's stripe.
// Keys whose replica set is unchanged (the vast majority, by the ring's
// minimal-movement property) are skipped without taking any lock.
// Cancelling ctx stops the copy between keys; the retire caller rolls
// the pending topology back, and keys already copied are harmless
// extras the ring no longer routes to.
func (p *Proxy) handoff(ctx context.Context, old, nt *topology) (uint64, error) {
	var sources []*backend
	for _, s := range old.backs {
		if s.readEligible() {
			sources = append(sources, s)
		}
	}
	var moved uint64
	var ob, nb [maxReplicas]int32
	err := p.forEachKey(sources, func(k uint64) error {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		oldSet := old.ring.Lookup(k, p.replicas(), ob[:0])
		newSet := nt.ring.Lookup(k, p.replicas(), nb[:0])
		for _, nid := range newSet {
			tb := nt.backs[nid]
			if backsContain(old, oldSet, tb) {
				continue
			}
			n, err := p.copyKeyTo(k, tb)
			if err != nil {
				return err
			}
			moved += n
		}
		return nil
	})
	return moved, err
}
