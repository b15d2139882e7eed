package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The five reclamation configurations every workload runs, in the
// order their slices interleave. Each workload instantiates them as
// its own kind of subject: a `hmap-*`/`list-*` set from the bench
// registry, or a whole `kvserver -reclaim *` service.
var subjects = []string{"orc", "ptp", "hp", "ebr", "none"}

// opsMetric names the end-to-end throughput metric of each subject.
var opsMetric = map[string]string{
	"orc":  "throughput_ops_s",
	"ptp":  "ptp_ops_s",
	"hp":   "hp_ops_s",
	"ebr":  "ebr_ops_s",
	"none": "none_ops_s",
}

// serverScheme is the kvserver -reclaim spelling of a subject.
func serverScheme(subj string) string {
	if subj == "orc" {
		return "orcgc"
	}
	return subj
}

type target int

const (
	targetHMap   target = iota // bench.NewSet("hmap-*"), in-process
	targetList                 // bench.NewSet("list-*"), in-process
	targetServer               // one kvserver child over TCP loopback
	targetProxy                // kvproxy -replicas 2 over two kvserver children
)

// workload is one traffic shape. The mix is in percent; what is left
// after insert/remove/scan is reads.
type workload struct {
	name   string
	why    string
	target target
	keys   uint64
	theta  float64 // zipfian exponent; 0 = uniform
	insert int     // Insert / Put
	remove int     // Remove / Del
	scan   int     // Scan (KV only), length scanLen

	// latMask picks the in-process ops that get their own clock pair
	// (op number & latMask == 0), on every subject alike so the two
	// clock reads tax all five equally: one in 32 of the hash map's
	// ~0.2 µs ops, every one of the list's ~10 µs walks. Service
	// workloads time every reply.
	latMask uint64

	z *zipf // zipfian constants, built by the first newGen
}

const scanLen = 16

var workloads = []workload{
	{
		name: "ds-churn", target: targetHMap, keys: 1024, insert: 50, remove: 50, latMask: 31,
		why: "hmap 1024 keys 50i/50r: nearly every op allocates or retires, so arena alloc/free, reclaim retire/scan and core refcounts do the work",
	},
	{
		name: "ds-read", target: targetList, keys: 1000, insert: 5, remove: 5,
		why: "Michael-Harris list 1000 keys 5i/5r/90c: each op walks hundreds of nodes, so deref and protect/publish dominate and retire is rare",
	},
	{
		name: "kv-mixed", target: targetServer, keys: 50000, theta: 0.99, insert: 44, remove: 5, scan: 1,
		why: "one kvserver, zipfian 0.99 over 50k keys, get50/put44/del5/scan1: wire, server, Store, both indexes and reclamation churn under hot-key contention",
	},
	{
		name: "proxy-read", target: targetProxy, keys: 200000, insert: 9, remove: 1,
		why: "kvproxy R=2 over two kvservers, uniform over 200k keys, get90/put9/del1: cluster dispatch, lanes, batching and write fan-out with no hot set",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) inProcess() bool { return w.target == targetHMap || w.target == targetList }

type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what `--trace 0` prints for every workload. Subject
// metrics come from that subject's slices; latency, CPU and memory
// come from the OrcGC subject.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"ptp_ops_s", "ops/s"},
	{"hp_ops_s", "ops/s"},
	{"ebr_ops_s", "ops/s"},
	{"none_ops_s", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"server_cpu_us_per_op", "us"},
	{"peak_live_objs", "objects"},
}

// perLayer is what `--trace 1` prints: the cost ladder and the
// counters read at the same boundaries.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"arena.deref_ns", "ns"},
		{"arena.alloc_free_ns", "ns"},
		{"arena.mag_hit_ratio", "ratio"},
		{"arena.faults", "count"},
	}
	for _, s := range []string{"hp", "ptp", "ebr"} {
		m = append(m,
			metricDef{"reclaim." + s + ".protect_ns", "ns"},
			metricDef{"reclaim." + s + ".elisions", "count"},
			metricDef{"reclaim." + s + ".retire_ns", "ns"},
			metricDef{"reclaim." + s + ".peak_unreclaimed", "objects"},
		)
	}
	m = append(m,
		metricDef{"reclaim.hp.scans", "count"},
		metricDef{"reclaim.hp.scan_ns_total", "ns"},
		metricDef{"reclaim.hp.scan_freed_ratio", "ratio"},
		metricDef{"reclaim.ptp.norm_vs_none", "ratio"},
		metricDef{"reclaim.ptp.vs_hp", "ratio"},
		metricDef{"reclaim.ptp.churn_norm_vs_none", "ratio"},
		metricDef{"core.load_release_ns", "ns"},
		metricDef{"core.load_release_self_ns", "ns"},
		metricDef{"core.elisions", "count"},
		metricDef{"core.make_drop_ns", "ns"},
		metricDef{"core.retires", "count"},
		metricDef{"core.frees", "count"},
		metricDef{"core.norm_vs_none", "ratio"},
		metricDef{"core.churn_norm_vs_none", "ratio"},
	)
	for _, s := range subjects {
		m = append(m, metricDef{"ds.hmap." + s + ".update_ns", "ns"})
	}
	for _, s := range subjects {
		m = append(m, metricDef{"ds.list." + s + ".contains_ns", "ns"})
	}
	m = append(m,
		metricDef{"ds.hmap.get_ns", "ns"},
		metricDef{"ds.hmap.get_self_ns", "ns"},
		metricDef{"ds.hmap.put_ns", "ns"},
		metricDef{"ds.hmap.del_ns", "ns"},
		metricDef{"ds.skiplist.scan16_ns", "ns"},
		metricDef{"kvstore.store.get_ns", "ns"},
		metricDef{"kvstore.store.get_self_ns", "ns"},
		metricDef{"kvstore.store.put_ns", "ns"},
		metricDef{"kvstore.store.del_ns", "ns"},
		metricDef{"kvstore.store.scan16_ns", "ns"},
		metricDef{"kvstore.wire.get_rtt_us", "us"},
		metricDef{"kvstore.wire.put_rtt_us", "us"},
		metricDef{"kvstore.wire.self_us", "us"},
		metricDef{"kvstore.wire.pipelined_ns_per_op", "ns"},
		metricDef{"kvstore.wire.allocs_per_op", "count"},
		metricDef{"kvstore.server.shed", "count"},
		metricDef{"kvstore.server.expired", "count"},
		metricDef{"cluster.get_rtt_us", "us"},
		metricDef{"cluster.put_rtt_us", "us"},
		metricDef{"cluster.hop_self_us", "us"},
		metricDef{"cluster.put_fanout_self_us", "us"},
		metricDef{"cluster.pipelined_ns_per_op", "ns"},
		metricDef{"cluster.allocs_per_op", "count"},
		metricDef{"cluster.routed_ops", "count"},
		metricDef{"cluster.hedges_fired", "count"},
		metricDef{"cluster.hedge_wins", "count"},
		metricDef{"cluster.read_retries", "count"},
		metricDef{"cluster.degraded_writes", "count"},
		metricDef{"ladder.get.self_sum_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return m
}

// benchmarkJSON is the part of BENCHMARK.json, at the repository root,
// that the code reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// moduleRoot walks up from the working directory to the directory
// holding this module's go.mod; children are built from there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}
