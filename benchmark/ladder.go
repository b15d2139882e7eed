package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/skiplist"
	"repro/internal/kvstore"
	"repro/internal/reclaim"
)

// The traced run prices each layer from outside. One thread, depth 1:
// every rung replays the workload's key stream (same seed, so the same
// keys at every rung) through one public function of one layer, inside
// a span per batch of calls. A rung's metric is the median batch time
// per call; a layer's self time is its rung minus the rung below.

// rungs is how many timed rungs share the run's --seconds.
const rungs = 35

// spansPerRung caps what trace.json keeps of each rung; the medians
// use every batch.
const spansPerRung = 256

// slotMask sizes the per-rung working sets of handles, links and roots
// the arena/reclaim/core rungs pick from by key.
const slotMask = 1023

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     uint64 `json:"req"` // index of the first op in the span; the same op at every rung
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

type ladder struct {
	w      *workload
	seed   uint64
	budget time.Duration // per rung
	res    *result
	t0     time.Time
	spans  []span
	sink   uint64 // keeps results of timed calls alive
}

// rung is one timed call site. call runs the batch's ops; base is the
// stream index of keys[0]. prep and undo run untimed around it.
type rung struct {
	metric string // per-layer metric that gets the median, "" for none
	fn     string // the public function(s) inside the span
	perUs  bool   // metric is in µs, not ns
	batch  int
	prep   func(keys []uint64)
	call   func(base uint64, keys []uint64)
	undo   func(keys []uint64)
}

// each adapts a per-op function to a batch call.
func each(f func(i, key uint64)) func(uint64, []uint64) {
	return func(base uint64, keys []uint64) {
		for j, k := range keys {
			f(base+uint64(j), k)
		}
	}
}

// run replays the key stream through r until the rung's budget is
// spent and returns the median and the mean time per op in ns.
func (l *ladder) run(r rung) (med, mean float64) {
	g := l.w.newGen(l.seed, 0)
	keys := make([]uint64, r.batch)
	parent := len(l.spans)
	l.spans = append(l.spans, span{ID: parent, Parent: 0, Name: "rung:" + r.fn, StartNs: time.Since(l.t0).Nanoseconds()})
	var perOp []float64
	var base uint64
	var busy time.Duration
	begin := time.Now()
	for time.Since(begin) < l.budget && len(perOp) < 1<<18 {
		for j := range keys {
			keys[j] = g.nextKey()
		}
		if r.prep != nil {
			r.prep(keys)
		}
		s := time.Now()
		r.call(base, keys)
		e := time.Now()
		if r.undo != nil {
			r.undo(keys)
		}
		d := e.Sub(s)
		busy += d
		perOp = append(perOp, float64(d.Nanoseconds())/float64(r.batch))
		if len(perOp) <= spansPerRung {
			l.spans = append(l.spans, span{
				ID: len(l.spans), Parent: parent, Name: r.fn, Req: base,
				StartNs: s.Sub(l.t0).Nanoseconds(), EndNs: e.Sub(l.t0).Nanoseconds(), Ops: r.batch,
			})
		}
		base += uint64(r.batch)
	}
	l.spans[parent].EndNs = time.Since(l.t0).Nanoseconds()
	l.spans[parent].Ops = int(base)
	l.res.attempted += base
	med = median(perOp)
	if base > 0 {
		mean = float64(busy.Nanoseconds()) / float64(base)
	}
	if r.metric != "" {
		if r.perUs {
			l.set(r.metric, med/1e3)
		} else {
			l.set(r.metric, med)
		}
	}
	return med, mean
}

func (l *ladder) set(name string, v float64) { l.res.metrics[name] = v }
func (l *ladder) get(name string) float64    { return l.res.metrics[name] }

func (l *ladder) check(err error, what string) {
	if err != nil {
		l.res.problem("%s: %v", what, err)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func runLadder(w *workload, seed uint64, seconds float64) *result {
	l := &ladder{
		w: w, seed: seed, res: newResult(), t0: time.Now(),
		budget: time.Duration(seconds / rungs * float64(time.Second)),
	}
	l.spans = append(l.spans, span{ID: 0, Parent: -1, Name: "trace:" + w.name})
	for _, layer := range []func(){l.arena, l.reclaim, l.core, l.sets, l.indexes, l.service} {
		layer()
		runtime.GC() // drop the finished layer's structures outside any span
	}
	l.derive()
	l.spans[0].EndNs = time.Since(l.t0).Nanoseconds()
	l.check(l.writeTrace(), "trace.json")
	return l.res
}

type anode struct {
	v   uint64
	pad [5]uint64 // node-sized payload, like the ds nodes
}

func (l *ladder) arena() {
	a := arena.New[anode](arena.WithFaultMode(arena.Count))
	handles := make([]arena.Handle, 1<<16)
	for i := range handles {
		h, p := a.AllocT(0)
		p.v = uint64(i)
		handles[i] = h
	}
	l.run(rung{metric: "arena.deref_ns", fn: "arena.Arena.Get", batch: 256,
		call: each(func(_, key uint64) {
			l.sink += a.Get(handles[key*0x9e3779b97f4a7c15>>48]).v
		})})
	l.run(rung{metric: "arena.alloc_free_ns", fn: "arena.Arena.FreeT+AllocT", batch: 256,
		call: each(func(_, key uint64) {
			i := key & slotMask
			a.FreeT(0, handles[i])
			handles[i], _ = a.AllocT(0)
		})})
	st := a.Stats()
	l.set("arena.mag_hit_ratio", st.MagHitRate())
	l.set("arena.faults", float64(st.Faults))
}

type rnode struct{ v uint64 }

func (l *ladder) reclaim() {
	for _, name := range []string{"hp", "ptp", "ebr"} {
		a := arena.New[rnode](arena.WithFaultMode(arena.Count))
		s := reclaim.MustNew(name, reclaim.Env{Free: a.FreeT, Hdr: a.Header},
			reclaim.Options{MaxThreads: 1, MaxHPs: dsHPs})
		alloc := func() uint64 {
			h, _ := a.AllocT(0)
			s.OnAlloc(h)
			return uint64(h)
		}
		slots := make([]atomic.Uint64, slotMask+1)
		for i := range slots {
			slots[i].Store(alloc())
		}
		pre := "reclaim." + name
		l.run(rung{metric: pre + ".protect_ns", fn: "reclaim.Scheme.BeginOp+GetProtected+ClearAll+EndOp", batch: 256,
			call: each(func(_, key uint64) {
				s.BeginOp(0)
				l.sink += uint64(s.GetProtected(0, 0, &slots[key&slotMask]))
				s.ClearAll(0)
				s.EndOp(0)
			})})
		elided := reclaim.ScanStats{}
		if ss, ok := s.(reclaim.ScanStatser); ok {
			elided = ss.ScanStats()
		}
		l.set(pre+".elisions", float64(elided.Elisions))

		// Replace-and-retire: the swap unlinks the old object, Retire
		// hands it over; scans and frees land inside the span, so the
		// median is the amortised cost. Replacements are allocated
		// before the span.
		fresh := make([]uint64, 64)
		l.run(rung{metric: pre + ".retire_ns", fn: "reclaim.Scheme.Retire", batch: len(fresh),
			prep: func(keys []uint64) {
				for j := range keys {
					fresh[j] = alloc()
				}
			},
			call: func(_ uint64, keys []uint64) {
				for j, key := range keys {
					old := slots[key&slotMask].Swap(fresh[j])
					s.Retire(0, arena.Handle(old))
				}
			}})
		l.set(pre+".peak_unreclaimed", float64(s.Stats().MaxRetiredNotFreed))
		if name == "hp" {
			ss := s.(reclaim.ScanStatser).ScanStats()
			l.set("reclaim.hp.scans", float64(ss.Scans))
			l.set("reclaim.hp.scan_ns_total", float64(ss.ScanNs))
			l.set("reclaim.hp.scan_freed_ratio", float64(ss.FreedRatioBP)/1e4)
		}
		if f := a.Stats().Faults; f != 0 {
			l.res.problem("reclaim.%s: %d arena faults", name, f)
		}
	}
}

type cnode struct {
	v    uint64
	next core.Atomic
}

func (l *ladder) core() {
	a := arena.New[cnode](arena.WithFaultMode(arena.Count))
	d := core.NewDomain(a, func(n *cnode, visit func(*core.Atomic)) { visit(&n.next) },
		core.DomainConfig{MaxThreads: 1})
	roots := make([]core.Atomic, slotMask+1)
	var p core.Ptr
	relink := func(_, key uint64) {
		h := d.Make(0, nil, &p)
		d.Store(0, &roots[key&slotMask], h) // links h, unlinks and so retires what was there
		d.Release(0, &p)
	}
	for i := range roots {
		relink(0, uint64(i))
	}
	l.run(rung{metric: "core.load_release_ns", fn: "core.Domain.Load+Release", batch: 256,
		call: each(func(_, key uint64) {
			l.sink += uint64(d.Load(0, &roots[key&slotMask], &p))
			d.Release(0, &p)
		})})
	l.set("core.elisions", float64(d.Elisions()))
	l.run(rung{metric: "core.make_drop_ns", fn: "core.Domain.Make+Store+Release", batch: 256, call: each(relink)})
	retires, frees := d.Stats()
	l.set("core.retires", float64(retires))
	l.set("core.frees", float64(frees))
	if f := a.Stats().Faults; f != 0 {
		l.res.problem("core: %d arena faults", f)
	}
}

// sets times the registry's hash map and list under each subject: the
// depth-1 per-op medians behind the *_ops_s metrics. Keys fold into
// the ds workloads' ranges (1024 and 1000), whatever the stream's own.
func (l *ladder) sets() {
	for _, subj := range subjects {
		inst := bench.NewSet("hmap-"+subj, 1)
		n := min(l.w.keys, 1024)
		for k := uint64(2); k <= n; k += 2 {
			inst.Set.Insert(0, k)
		}
		l.run(rung{metric: "ds.hmap." + subj + ".update_ns", fn: "hmap-" + subj + ".Insert|Remove", batch: 64,
			call: each(func(i, key uint64) {
				if k := 1 + (key-1)%n; i&1 == 0 {
					inst.Set.Insert(0, k)
				} else {
					inst.Set.Remove(0, k)
				}
			})})
	}
	for _, subj := range subjects {
		inst := bench.NewSet("list-"+subj, 1)
		n := min(l.w.keys, 1000)
		for k := uint64(2); k <= n; k += 2 {
			inst.Set.Insert(0, k)
		}
		l.run(rung{metric: "ds.list." + subj + ".contains_ns", fn: "list-" + subj + ".Contains", batch: 16,
			call: each(func(_, key uint64) {
				if inst.Set.Contains(0, 1+(key-1)%n) {
					l.sink++
				}
			})})
	}
}

// storeBuckets is the point index a default kvserver spreads its keys
// over: 8 shards × 1024 buckets.
const storeBuckets = 8 * 1024

// indexes times the store's two indexes alone, over the workload's
// whole keyspace: OrcMap (point) and the CRF skip list (scan).
func (l *ladder) indexes() {
	cfg := core.DomainConfig{MaxThreads: 1}
	m := hashmap.NewOrc(0, storeBuckets, cfg)
	sk := skiplist.NewCRFOrc(0, cfg)
	for k := uint64(1); k <= l.w.keys; k++ {
		m.Put(0, k, kvValue(k, 0))
		sk.Put(0, k, kvValue(k, 0))
	}
	l.run(rung{metric: "ds.hmap.get_ns", fn: "hashmap.OrcMap.Get", batch: 64,
		call: each(func(_, key uint64) {
			v, _ := m.Get(0, key)
			l.sink += v
		})})
	l.run(rung{metric: "ds.hmap.put_ns", fn: "hashmap.OrcMap.Put", batch: 64,
		call: each(func(i, key uint64) { m.Put(0, key, kvValue(key, i)) })})
	l.run(rung{metric: "ds.hmap.del_ns", fn: "hashmap.OrcMap.Remove", batch: 64,
		call: each(func(_, key uint64) { m.Remove(0, key) }),
		undo: func(keys []uint64) {
			for _, k := range keys {
				m.Put(0, k, kvValue(k, 0))
			}
		}})
	l.run(rung{metric: "ds.skiplist.scan16_ns", fn: "skiplist.CRFOrc.Scan", batch: 8,
		call: each(func(_, key uint64) {
			sk.Scan(0, key, scanLen, func(k, v uint64) bool {
				l.sink += v
				return true
			})
		})})
}

// backend is one in-process kvstore.Server on a loopback port.
type backend struct {
	st   *kvstore.Store
	srv  *kvstore.Server
	addr string
}

func (l *ladder) newBackend() (*backend, error) {
	st, err := kvstore.New(kvstore.Config{Scheme: "orcgc"})
	if err != nil {
		return nil, err
	}
	for k := uint64(1); k <= l.w.keys; k++ {
		if _, err := st.Put(0, k, kvValue(k, 0)); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{st: st, srv: kvstore.NewServer(st), addr: ln.Addr().String()}
	go func() { l.check(b.srv.Serve(ln), "Serve") }()
	return b, nil
}

// clientRungs times the blocking client at depth 1 and a 64-deep
// pipelined window against addr, under the metric prefix pre.
func (l *ladder) clientRungs(pre, addr string) (cl *kvstore.Client, traced float64) {
	cl, err := kvstore.Dial(addr, clientOpts...)
	if err != nil {
		l.check(err, "dial "+addr)
		return nil, 0
	}
	ctx := context.Background()
	_, traced = l.run(rung{metric: pre + ".get_rtt_us", perUs: true, fn: pre + ": kvstore.Client.Get", batch: 1,
		call: each(func(_, key uint64) {
			v, found, err := cl.Get(ctx, key)
			if err != nil || !found || !kvValueOK(key, v) {
				l.res.problem("%s Get(%d) = %d, %v, %v", pre, key, v, found, err)
			}
		})})
	l.run(rung{metric: pre + ".put_rtt_us", perUs: true, fn: pre + ": kvstore.Client.Put", batch: 1,
		call: each(func(i, key uint64) {
			if _, err := cl.Put(ctx, key, kvValue(key, i)); err != nil {
				l.res.problem("%s Put(%d): %v", pre, key, err)
			}
		})})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops0 := l.res.attempted
	l.run(rung{metric: pre + ".pipelined_ns_per_op", fn: pre + ": kvstore.Client.SendGet*64+Flush+RecvGet*64", batch: 64,
		call: func(_ uint64, keys []uint64) {
			for _, k := range keys {
				cl.SendGet(k)
			}
			err := cl.Flush()
			for _, k := range keys {
				v, found, rerr := cl.RecvGet()
				if err == nil && (rerr != nil || !found || !kvValueOK(k, v)) {
					err = fmt.Errorf("Get(%d) = %d, %v, %v", k, v, found, rerr)
				}
			}
			l.check(err, pre+" pipelined")
		}})
	runtime.ReadMemStats(&ms1)
	l.set(pre+".allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(l.res.attempted-ops0)))
	return cl, traced
}

// service times Store calls direct, then the same store behind an
// in-process Server over TCP loopback, then two such backends behind
// an in-process cluster.Proxy at R=2.
func (l *ladder) service() {
	b, err := l.newBackend()
	if err != nil {
		l.check(err, "backend")
		return
	}
	st := b.st
	l.run(rung{metric: "kvstore.store.get_ns", fn: "kvstore.Store.Get", batch: 64,
		call: each(func(_, key uint64) {
			v, _, _ := st.Get(0, key) // keys come from the generator, always in range
			l.sink += v
		})})
	l.run(rung{metric: "kvstore.store.put_ns", fn: "kvstore.Store.Put", batch: 64,
		call: each(func(i, key uint64) { _, _ = st.Put(0, key, kvValue(key, i)) })})
	l.run(rung{metric: "kvstore.store.del_ns", fn: "kvstore.Store.Del", batch: 64,
		call: each(func(_, key uint64) { _, _ = st.Del(0, key) }),
		undo: func(keys []uint64) {
			for _, k := range keys {
				_, _ = st.Put(0, k, kvValue(k, 0))
			}
		}})
	l.run(rung{metric: "kvstore.store.scan16_ns", fn: "kvstore.Store.Scan", batch: 8,
		call: each(func(_, key uint64) {
			pairs, _ := st.Scan(0, key, scanLen)
			l.sink += uint64(len(pairs))
		})})

	cl, _ := l.clientRungs("kvstore.wire", b.addr)
	adm := b.srv.AdmissionStats()
	l.set("kvstore.server.shed", float64(adm.Shed))
	l.set("kvstore.server.expired", float64(adm.DeadlineExceeded))
	if cl != nil {
		cl.Close()
	}

	b2, err := l.newBackend()
	if err != nil {
		l.check(err, "backend")
		return
	}
	p := cluster.New(cluster.Config{Backends: []string{b.addr, b2.addr}, Replicas: 2})
	l.check(p.WaitReady(10*time.Second), "proxy WaitReady")
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.check(err, "proxy listen")
		return
	}
	go func() { l.check(p.Serve(pln), "proxy Serve") }()
	pcl, traced := l.clientRungs("cluster", pln.Addr().String())
	info := p.Snapshot()
	l.set("cluster.routed_ops", float64(info.RoutedOps))
	l.set("cluster.hedges_fired", float64(info.HedgesFired))
	l.set("cluster.hedge_wins", float64(info.HedgeWins))
	l.set("cluster.read_retries", float64(info.ReadRetries))
	l.set("cluster.degraded_writes", float64(info.DegradedWrites))

	// Tracing overhead at the top rung: the same Gets in one span per
	// call (above) against one clock pair around the whole budget.
	if pcl != nil {
		ctx := context.Background()
		g := l.w.newGen(l.seed, 0)
		n := 0
		begin := time.Now()
		for time.Since(begin) < l.budget {
			for i := 0; i < 64; i++ {
				_, _, err := pcl.Get(ctx, g.nextKey())
				l.check(err, "untraced Get")
			}
			n += 64
		}
		l.res.attempted += uint64(n)
		l.set("trace.overhead_ratio", ratio(traced, float64(time.Since(begin).Nanoseconds())/float64(n)))
		pcl.Close()
	}
	p.Shutdown()
	for _, be := range []*backend{b, b2} {
		be.srv.Shutdown()
		if rep := be.st.DrainAndCheck(0); !rep.LeakOK {
			l.res.problem("ladder backend: leak check failed: live %d baseline %d", rep.Live, rep.Baseline)
		}
	}
}

// derive fills the self times and the paper's ratios from the rungs.
func (l *ladder) derive() {
	self := func(name, upper, lower string, scale float64) float64 {
		v := max(0, l.get(upper)-l.get(lower)*scale)
		l.set(name, v)
		return v
	}
	// The Get ladder, bottom to top, in ns.
	sum := l.get("arena.deref_ns")
	sum += self("core.load_release_self_ns", "core.load_release_ns", "arena.deref_ns", 1)
	sum += self("ds.hmap.get_self_ns", "ds.hmap.get_ns", "core.load_release_ns", 1)
	sum += self("kvstore.store.get_self_ns", "kvstore.store.get_ns", "ds.hmap.get_ns", 1)
	sum += 1e3 * self("kvstore.wire.self_us", "kvstore.wire.get_rtt_us", "kvstore.store.get_ns", 1e-3)
	sum += 1e3 * self("cluster.hop_self_us", "cluster.get_rtt_us", "kvstore.wire.get_rtt_us", 1)
	l.set("ladder.get.self_sum_ratio", ratio(sum, 1e3*l.get("cluster.get_rtt_us")))
	self("cluster.put_fanout_self_us", "cluster.put_rtt_us", "kvstore.wire.put_rtt_us", 1)

	// Throughput ratios, so time of the baseline over time of the scheme.
	l.set("reclaim.ptp.norm_vs_none", ratio(l.get("ds.list.none.contains_ns"), l.get("ds.list.ptp.contains_ns")))
	l.set("reclaim.ptp.vs_hp", ratio(l.get("ds.list.hp.contains_ns"), l.get("ds.list.ptp.contains_ns")))
	l.set("reclaim.ptp.churn_norm_vs_none", ratio(l.get("ds.hmap.none.update_ns"), l.get("ds.hmap.ptp.update_ns")))
	l.set("core.norm_vs_none", ratio(l.get("ds.list.none.contains_ns"), l.get("ds.list.orc.contains_ns")))
	l.set("core.churn_norm_vs_none", ratio(l.get("ds.hmap.none.update_ns"), l.get("ds.hmap.orc.update_ns")))
}

// writeTrace writes the spans kept in memory to benchmark/out/trace.json.
func (l *ladder) writeTrace() error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{l.w.name, l.seed, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), js, 0o644)
}
