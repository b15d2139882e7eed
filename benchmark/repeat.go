package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// runRepeat is the tool that produced the bounds in BENCHMARK.json and
// the one that checks them: it runs every selected workload n times
// untraced, each run a fresh process with its own seed, exactly as the
// acceptance driver invokes it, and prints per metric the median, the
// quartiles and the spread (Q3-Q1 over the median). It fails when a
// run is incorrect, when a spread exceeds the metric's bound (n >= 4;
// set-up time excepted, as in the acceptance rule), or when the
// median of the second half of the runs is worse than that of the
// first half by more than the bound.
func runRepeat(bj *benchmarkJSON, sel []*workload, seed uint64, seconds float64, n int) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	status := 0
	for _, w := range sel {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			c, err := startChild("benchmark run", self, "--workload", w.name, "--trace", "0",
				"--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
			if err != nil {
				fatal("%v", err)
			}
			<-c.exited
			err = c.err
			lines := bytes.Split(bytes.TrimSpace(c.stdout.Bytes()), []byte("\n"))
			var ro runOut
			if jerr := json.Unmarshal(lines[len(lines)-1], &ro); jerr != nil {
				fmt.Printf("%s run %d: no result (%v, %v): %s\n", w.name, i, err, jerr, tail(c.stderr.String()))
				status = 1
				continue
			}
			if err != nil || !ro.Correct || ro.Failed != 0 {
				fmt.Printf("%s run %d (seed %d): correct=%v failed=%d exit=%v\n", w.name, i, seed+uint64(i), ro.Correct, ro.Failed, err)
				status = 1
			}
			for name, m := range ro.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.name, i+1, n)
		}
		fmt.Printf("\n== %s: %d runs, seeds %d..%d, %gs each ==\n", w.name, n, seed, seed+uint64(n)-1, seconds)
		fmt.Printf("  %-22s %14s %14s %14s %8s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "drift", "bound")
		for _, m := range bj.EndToEnd {
			xs := vals[m.Name]
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			// drift: how much worse the second half's median is than
			// the first half's, as a share of the first.
			a, b := median(xs[:len(xs)/2]), median(xs[len(xs)/2:])
			drift := ratio(b-a, a)
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			if len(xs) >= 4 && m.Name != "setup_s" && spread > m.Bound {
				verdict = "  SPREAD>BOUND"
				status = 1
			}
			if len(xs) >= 2 && drift > m.Bound {
				verdict += "  SETS DISAGREE"
				status = 1
			}
			fmt.Printf("  %-22s %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %7.1f%%%s\n",
				m.Name, med, q1, q3, 100*spread, 100*drift, 100*m.Bound, verdict)
		}
		fmt.Println("  every run, in order:")
		for _, m := range bj.EndToEnd {
			fmt.Printf("  %-22s", m.Name)
			for _, x := range vals[m.Name] {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
	}
	return status
}
