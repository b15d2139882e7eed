// kvproxy fronts a set of kvserver backends with the orccluster layer:
// consistent-hash sharding, replication, hedged reads, circuit-broken
// connection pools, and live topology changes — all behind the same
// length-prefixed protocol, so kvload and kvstore.Client work against
// it unmodified.
//
//	kvproxy -addr :7000 -backends 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//	kvproxy -backends ... -replicas 2 -metrics :7001
//
// The admin verbs (CLUSTER_INFO/ADD/DRAIN/REMOVE) ride the same port;
// see kvstore.Client.ClusterInfo and friends.
//
// SIGINT/SIGTERM shuts down gracefully: stop accepting, finish
// in-flight pipelines, tear down the backend pools. The backends stay
// up — draining them (and checking their leak verdicts) is a separate
// operator step, which is exactly what `make cluster-smoke` exercises.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "client listen address")
	backends := flag.String("backends", "", "comma-separated kvserver addresses (required)")
	replicas := flag.Int("replicas", 2, "copies per key (clamped to backend count)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "ring vnode budget per backend")
	depth := flag.Int("depth", 512, "in-flight requests per backend")
	ioTimeout := flag.Duration("io-timeout", 10*time.Second, "per backend response read timeout")
	waitReady := flag.Duration("wait-ready", 15*time.Second, "wait for all backends to connect before serving (0 = serve immediately)")
	metricsAddr := flag.String("metrics", "", "metrics listen address, e.g. :7001 ('' = disabled)")
	sample := flag.Duration("sample", 100*time.Millisecond, "sampler period (with -metrics)")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof on the metrics address (requires -metrics)")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "kvproxy: -backends is required")
		os.Exit(2)
	}
	list := strings.Split(*backends, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	p := cluster.New(cluster.Config{
		Backends:  list,
		Replicas:  *replicas,
		VNodes:    *vnodes,
		Depth:     *depth,
		IOTimeout: *ioTimeout,
		Metrics:   reg,
	})

	var sampler *obs.Sampler
	if reg != nil {
		sampler = obs.NewSampler(reg, *sample)
		sampler.Start()
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvproxy: metrics listener: %v\n", err)
			os.Exit(2)
		}
		mux := obs.Mux(reg)
		if *pprofOn {
			obs.AttachPprof(mux)
		}
		go http.Serve(mln, mux)
		defer mln.Close()
		fmt.Fprintf(os.Stderr, "kvproxy: metrics on http://%s/metrics\n", mln.Addr())
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "kvproxy: -pprof needs -metrics for a listen address")
		os.Exit(2)
	}

	if *waitReady > 0 {
		if err := p.WaitReady(*waitReady); err != nil {
			fmt.Fprintf(os.Stderr, "kvproxy: %v\n", err)
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvproxy: %v\n", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "kvproxy: shutting down...")
		p.Shutdown()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "kvproxy: %d backends, R=%d, on %s\n", len(list), *replicas, *addr)
	if err := p.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "kvproxy: %v\n", err)
		os.Exit(1)
	}
	<-done
	if sampler != nil {
		sampler.Stop()
	}
}
