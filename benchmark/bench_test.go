package main

import (
	"math"
	"regexp"
	"testing"
)

// In-process only: no child is built or started here.

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := w.streamHash(1, 0, 20000), w.streamHash(1, 0, 20000)
		if a != b {
			t.Errorf("%s: same seed, different streams: %x vs %x", w.name, a, b)
		}
		if c := w.streamHash(2, 0, 20000); c == a {
			t.Errorf("%s: seeds 1 and 2 give the same stream %x", w.name, a)
		}
		if c := w.streamHash(1, 1, 20000); c == a {
			t.Errorf("%s: streams 0 and 1 of one seed coincide: %x", w.name, a)
		}
	}
}

func TestGeneratorsStayInRangeAndFollowTheMix(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g := w.newGen(7, 0)
		var kinds [4]int
		const n = 100000
		for j := 0; j < n; j++ {
			o := g.next()
			if o.key < 1 || o.key > w.keys {
				t.Fatalf("%s: key %d outside [1,%d]", w.name, o.key, w.keys)
			}
			kinds[o.kind]++
		}
		want := [4]int{100 - w.insert - w.remove - w.scan, w.insert, w.remove, w.scan}
		for k, pct := range want {
			if got := 100 * float64(kinds[k]) / n; math.Abs(got-float64(pct)) > 1 {
				t.Errorf("%s: op kind %d is %.1f%% of the stream, want %d%%", w.name, k, got, pct)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTheCode: every name BENCHMARK.json declares
// is one the code emits, with the same unit, and the other way round.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	compare := func(kind string, code []metricDef, declared map[string]string) {
		for _, d := range code {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q unit %q is not a legal name/unit", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
			if u, ok := declared[d.Name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, d.Name)
			} else if u != d.Unit {
				t.Errorf("%s metric %s: unit %q in the code, %q in BENCHMARK.json", kind, d.Name, d.Unit, u)
			}
			delete(declared, d.Name)
		}
		for name := range declared {
			t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, name)
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	compare("end-to-end", endToEnd, e2e)
	if _, ok := e2e["setup_s"]; ok {
		t.Error("setup_s was not matched") // compare deletes what it matched
	}
	layer := map[string]string{}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	compare("per-layer", perLayer, layer)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: illegal or reused name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
}

func TestUntracedRunEmitsEveryEndToEndMetric(t *testing.T) {
	w := findWorkload("ds-churn")
	res, defs := runOne(w, 1, 0.5, false)
	for _, p := range res.problems {
		t.Errorf("check failed: %s", p)
	}
	for _, d := range defs {
		if v := res.metrics[d.Name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive number", d.Name, v)
		}
	}
}

// TestTracedLadder runs a tiny traced run: exactly the declared
// per-layer metrics come out, self times are non-negative, and they
// sum to the top rung within the tolerance.
func TestTracedLadder(t *testing.T) {
	w := findWorkload("ds-churn")
	res, defs := runOne(w, 1, 1.5, true)
	for _, p := range res.problems {
		t.Errorf("check failed: %s", p)
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.metrics), len(defs))
	}
	for _, name := range []string{
		"arena.deref_ns", "core.load_release_self_ns", "ds.hmap.get_self_ns",
		"kvstore.store.get_self_ns", "kvstore.wire.self_us", "cluster.hop_self_us",
		"cluster.put_fanout_self_us",
	} {
		if v, ok := res.metrics[name]; !ok || v < 0 {
			t.Errorf("self time %s = %v (present %v), want >= 0", name, v, ok)
		}
	}
	// Clamping a negative self time to zero is the only way the sum can
	// leave the top rung, and only upwards.
	const tolerance = 0.25
	if r := res.metrics["ladder.get.self_sum_ratio"]; r < 1-1e-9 || r > 1+tolerance {
		t.Errorf("ladder self times sum to %.3f of the top rung, want within [1, %.2f]", r, 1+tolerance)
	}
	if r := res.metrics["trace.overhead_ratio"]; r < 0.5 || r > 2 {
		t.Errorf("trace.overhead_ratio = %v", r)
	}
	if f := res.metrics["arena.faults"]; f != 0 {
		t.Errorf("arena.faults = %v", f)
	}
}
