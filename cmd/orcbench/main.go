// orcbench is the master benchmark driver: it regenerates each of the
// paper's figures and measured tables.
//
//	orcbench -fig all                      # everything, CI scale
//	orcbench -fig 3 -threads 1,2,4,8,16 -duration 2s -runs 5
//	orcbench -fig mem -out data/           # §5 footprint + TSV files
//	orcbench -fig 3,4,5,6                  # several figures in one run
//
// Figure ids: 1 2 3 4 5 6 7 8 mem table1 (see DESIGN.md §3 for the
// mapping to the paper's evaluation). The artifact's per-experiment
// binaries are id lists: q-ll-enq-deq is -fig 1,2, set-ll-1k is
// -fig 3,4,5,6, set-tree-1m is -fig 7,8 and set-skiplist-1m is
// -fig 7,8,mem (-keys-big 1000000 for the paper's key range).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated figure ids (1..8, mem, table1) or 'all'")
	threads := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	duration := flag.Duration("duration", 300*time.Millisecond, "measurement time per point")
	runs := flag.Int("runs", 1, "runs per point (mean reported; paper used 5)")
	keysList := flag.Uint64("keys-list", 1000, "key range for the list figures (paper: 1e3)")
	keysBig := flag.Uint64("keys-big", 100000, "key range for tree/skip figures (paper: 1e6)")
	out := flag.String("out", "", "directory for TSV data files (optional)")
	sample := flag.Duration("sample", time.Millisecond, "table1 backlog sampler period")
	flag.Parse()

	tc, err := bench.ParseThreads(*threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orcbench: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Threads:  tc,
		Duration: *duration,
		Runs:     *runs,
		KeysList: *keysList,
		KeysBig:  *keysBig,
		DataDir:  *out,

		SamplePeriod: *sample,
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = bench.FigureIDs()
	}
	for _, id := range ids {
		if err := bench.Figure(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "orcbench: %v\n", err)
			os.Exit(1)
		}
	}
}
