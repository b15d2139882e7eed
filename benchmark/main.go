// Command benchmark is the repository's one benchmark: four workloads
// over the whole stack (arena → reclaim/core → ds → kvstore → cluster),
// ten end-to-end metrics per workload, and a traced run that prices
// each layer's public calls on a cost ladder. See README.md here.
//
//	bash benchmark/run.sh                       # every workload, both runs
//	bash benchmark/run.sh --workload kv-mixed --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --repeat 10           # same-code spread vs BENCHMARK.json
//
// The last line of standard output of a single (workload, trace) run is
// one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runOut struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// A run's seconds are cut into interleaved slices of about sliceTarget
// per subject (never fewer than minRounds each); each slice yields its
// own throughput, latency percentiles and CPU per op, and a metric is
// the mean of the better half of its slices (see betterHalf). Many
// short slices put every subject in every phase of the host's
// wandering speed.
const (
	sliceTarget = 100 * time.Millisecond
	minRounds   = 5
)

// slicing splits seconds among the subjects.
func slicing(seconds float64) (rounds int, dur time.Duration) {
	per := seconds / float64(len(subjects))
	rounds = max(minRounds, int(per/sliceTarget.Seconds()+0.5))
	return rounds, time.Duration(per / float64(rounds) * float64(time.Second))
}

// result is what one (workload, trace) run reports.
type result struct {
	mu        sync.Mutex // services shut down concurrently and report here
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	problems  []string // correctness checks that failed
	notes     []string // extra human-readable rows
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// threads is T: the worker threads or client connections every
// workload generates load with, sized to the host.
func threads() int { return min(runtime.NumCPU(), 2) }

// runOne measures one workload, traced or not, and checks that exactly
// the promised metrics came out.
func runOne(w *workload, seed uint64, seconds float64, traced bool) (*result, []metricDef) {
	var res *result
	defs := endToEnd
	switch {
	case traced:
		res, defs = runLadder(w, seed, seconds), perLayer
	case w.inProcess():
		res = runDS(w, seed, seconds, threads())
	default:
		res = runKV(w, seed, seconds, threads())
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.Name]; !ok {
			res.problem("metric %s was not measured", d.Name)
		}
	}
	if len(res.metrics) > len(defs) {
		res.problem("%d metrics measured, %d declared", len(res.metrics), len(defs))
	}
	if res.attempted == 0 {
		res.problem("no operation was attempted")
	}
	return res, defs
}

func report(w *workload, seed uint64, traced bool, res *result, defs []metricDef) {
	kind := "end-to-end (untraced)"
	if traced {
		kind = "per-layer (traced, 1 thread, depth 1)"
	}
	fmt.Printf("\n== %s  seed %d  %s ==\n", w.name, seed, kind)
	for _, d := range defs {
		fmt.Printf("  %-36s %16.4f %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	fmt.Printf("  attempted %d  failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	out := runOut{
		Correct: len(res.problems) == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]metricOut{},
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricOut{res.metrics[d.Name], d.Unit}
	}
	js, _ := json.Marshal(out) // plain numbers and strings cannot fail to encode
	fmt.Printf("%s\n", js)
}

func main() {
	wl := flag.String("workload", "all", "workload name, or all: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same op streams")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "both", "0 = end-to-end run, 1 = traced per-layer run, both")
	repeat := flag.Int("repeat", 0, "run every selected workload N times (seeds seed..seed+N-1) untraced and print the spread against BENCHMARK.json")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal("%v", err)
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		fatal("%v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(bj.RunSeconds)
	}
	var sel []*workload
	if *wl == "all" {
		for i := range workloads {
			sel = append(sel, &workloads[i])
		}
	} else if w := findWorkload(*wl); w != nil {
		sel = append(sel, w)
	} else {
		fatal("unknown workload %q (have %s)", *wl, workloadNames())
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		fatal("--trace takes 0, 1 or both")
	}

	// A signal must not strand children: reap them, then die.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		reapAll()
		os.Exit(130)
	}()

	if *repeat > 0 {
		os.Exit(runRepeat(bj, sel, *seed, *seconds, *repeat))
	}
	ok := true
	for _, w := range sel {
		for _, traced := range traces {
			res, defs := runOne(w, *seed, *seconds, traced)
			report(w, *seed, traced, res, defs)
			ok = ok && len(res.problems) == 0
		}
	}
	reapAll()
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	reapAll()
	os.Exit(2)
}
