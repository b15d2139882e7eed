package torture

import (
	"testing"
)

// smokeCfg keeps in-tree runs fast; cmd/orctorture is the heavy driver.
func smokeCfg(seed uint64) Config {
	return Config{Seed: seed, Threads: 4, OpsPerThread: 800, Keys: 256, Stalls: 1}
}

// TestScheduleDeterminism proves the acceptance condition that the same
// seed yields the same op schedules: two runs of the same (subject, seed,
// config) must report identical ScheduleHash values, and a different seed
// must diverge. Thread interleaving differs between runs — only the
// schedules are deterministic — so verdict stats are not compared.
func TestScheduleDeterminism(t *testing.T) {
	for _, sub := range []Subject{
		{Name: "michael-orc", Kind: "set"},
		{Name: "list-hp", Kind: "set"},
		{Name: "ms-ebr", Kind: "queue"},
		{Name: "lcrq-orc", Kind: "queue"},
	} {
		a := Run(sub, smokeCfg(42))
		b := Run(sub, smokeCfg(42))
		if a.ScheduleHash != b.ScheduleHash {
			t.Errorf("%s: same seed, different schedule hash: %016x vs %016x",
				sub.Name, a.ScheduleHash, b.ScheduleHash)
		}
		c := Run(sub, smokeCfg(43))
		if c.ScheduleHash == a.ScheduleHash {
			t.Errorf("%s: seeds 42 and 43 produced the same schedule hash %016x",
				sub.Name, a.ScheduleHash)
		}
		for _, v := range []*Verdict{a, b, c} {
			if !v.Passed() {
				t.Errorf("%s seed=%d: %v", sub.Name, v.Seed, v.Failures)
			}
		}
	}
}

// TestStallsTaken checks the injector actually parks stalled readers:
// a run with Stalls=1 on a protection-heavy subject must record parks.
func TestStallsTaken(t *testing.T) {
	cfg := smokeCfg(7)
	cfg.OpsPerThread = 2000
	v := RunSet("list-hp", cfg)
	if !v.Passed() {
		t.Fatalf("list-hp: %v", v.Failures)
	}
	if v.StallsTaken == 0 {
		t.Errorf("expected stalled-reader parks, injector took none (protects never hit StallEvery?)")
	}
}

// TestPeekStallsFailValidation checks that stalled readers park inside
// the speculative Contains walk's validation window (rt.SitePeek) and
// that writers recycle nodes under them: an OrcGC list run must record
// failed validations and still pass every verdict.
func TestPeekStallsFailValidation(t *testing.T) {
	var fails uint64
	for seed := uint64(1); seed <= 4 && fails == 0; seed++ {
		cfg := smokeCfg(seed)
		// A park every 61 steps, longer than one op's walk, lands in a
		// random op rather than again in the op it just left; a short
		// hold over a small keyspace gives many parks, each likely to
		// outlive its node.
		cfg.Stalls, cfg.StallEvery, cfg.StallHold, cfg.Keys = 2, 61, 200, 64
		v := RunSet("michael-orc", cfg)
		if !v.Passed() {
			t.Fatalf("michael-orc seed=%d: %v", seed, v.Failures)
		}
		fails += v.Scan.PeekFails
	}
	if fails == 0 {
		t.Error("no speculative walk failed validation over seeds 1-4 (is rt.SitePeek still inside the window?)")
	}
}

// TestSmokeRepresentatives runs one subject per scheme family so the CI
// smoke exercises every reclamation path without the full 49-subject
// sweep. cmd/orctorture -subjects all covers the rest.
func TestSmokeRepresentatives(t *testing.T) {
	subs := []Subject{
		{Name: "michael-orc", Kind: "set"}, // OrcGC list
		{Name: "tbkp-orc", Kind: "set"},    // wait-free helping + descriptors
		{Name: "list-hp", Kind: "set"},     // hazard pointers
		{Name: "list-ebr", Kind: "set"},    // epochs
		{Name: "list-he", Kind: "set"},     // hazard eras
		{Name: "list-ibr", Kind: "set"},    // interval-based
		{Name: "list-none", Kind: "set"},   // leak baseline conservation
		{Name: "hsskip-orc", Kind: "set"},  // multi-level links
		{Name: "ms-orc", Kind: "queue"},    // queue under OrcGC
		{Name: "ms-hp", Kind: "queue"},     // queue under hazard pointers
		{Name: "lcrq-orc", Kind: "queue"},  // ring segments
		{Name: "kp-orc", Kind: "queue"},    // wait-free queue descriptors
	}
	for _, sub := range subs {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			t.Parallel() // hookMu serializes actual runs; this just queues
			v := Run(sub, smokeCfg(11))
			if !v.Passed() {
				t.Errorf("seed=%d: %v", v.Seed, v.Failures)
			}
			if v.Arena.Faults != 0 {
				t.Errorf("arena faults: %d", v.Arena.Faults)
			}
		})
	}
}

// TestScanTortureSmoke runs the scheme-direct scan/elision subject for
// every manual scheme: stalled readers park inside the elided protection
// branch, so the untouched published slot is the only thing keeping
// their object alive while writers churn the scan engine.
func TestScanTortureSmoke(t *testing.T) {
	for _, scheme := range scanSchemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel() // hookMu serializes actual runs; this just queues
			v := RunScanScheme(scheme, smokeCfg(23))
			if !v.Passed() {
				t.Errorf("seed=%d: %v", v.Seed, v.Failures)
			}
			if v.Scan.Elisions == 0 {
				t.Error("no elisions recorded")
			}
			if v.StallsTaken == 0 {
				t.Error("injector parked no readers")
			}
		})
	}
	// Determinism: same seed, same schedule hash.
	a := RunScanScheme("hp", smokeCfg(23))
	b := RunScanScheme("hp", smokeCfg(23))
	if a.ScheduleHash != b.ScheduleHash {
		t.Errorf("scan-hp schedule hash not deterministic: %016x vs %016x",
			a.ScheduleHash, b.ScheduleHash)
	}
}

// TestKVChaosSmoke runs the connection-chaos subject against the OrcGC
// store and the hazard-pointer store.
func TestKVChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos subject skipped in -short")
	}
	for _, scheme := range []string{"orcgc", "hp"} {
		cfg := smokeCfg(19)
		cfg.OpsPerThread = 512
		v := RunKV(scheme, cfg)
		if !v.Passed() {
			t.Errorf("kv-%s seed=%d: %v", scheme, v.Seed, v.Failures)
		}
	}
}

// TestClusterFailoverSmoke runs the proxy failover subject: three
// backends on different schemes, one killed and restarted mid-run, with
// the shadow models proving no acked write was lost at R=2.
func TestClusterFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failover subject skipped in -short")
	}
	cfg := smokeCfg(31)
	cfg.OpsPerThread = 1500
	v := RunCluster(cfg)
	if !v.Passed() {
		t.Fatalf("cluster-failover seed=%d: %v", v.Seed, v.Failures)
	}
	if v.Cluster["routed"] == 0 {
		t.Error("proxy routed no ops")
	}
	if v.Cluster["breaker_trips"] == 0 {
		t.Error("victim kill never tripped the breaker")
	}
}

// TestResolve exercises the subject-spec parser.
func TestResolve(t *testing.T) {
	all, err := Resolve("all")
	if err != nil || len(all) < 40 {
		t.Fatalf("Resolve(all) = %d subjects, err %v", len(all), err)
	}
	two, err := Resolve("ms-orc, tbkp-orc")
	if err != nil || len(two) != 2 || two[0].Kind != "queue" || two[1].Kind != "set" {
		t.Fatalf("Resolve two = %+v, err %v", two, err)
	}
	if _, err := Resolve("no-such-subject"); err == nil {
		t.Fatal("Resolve accepted an unknown subject")
	}
}

// TestOverloadSmoke runs the admission-control overload subject: 3×
// capacity in budget-carrying connections against a 3-slot/4-waiter
// server, with strict shadows proving refused writes never execute and
// the wire-level refusal ledgers agreeing exactly.
func TestOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overload subject skipped in -short")
	}
	cfg := smokeCfg(47)
	cfg.OpsPerThread = 600
	v := RunOverload(cfg)
	if !v.Passed() {
		t.Fatalf("kv-overload seed=%d: %v", v.Seed, v.Failures)
	}
	if v.Cluster["shed_total"] == 0 {
		t.Error("overload run shed nothing")
	}
	if v.Cluster["completed"] == 0 {
		t.Error("overload run completed nothing")
	}
	// Determinism: same seed, same schedule hash.
	b := RunOverload(cfg)
	if v.ScheduleHash != b.ScheduleHash {
		t.Errorf("overload schedule hash not deterministic: %016x vs %016x",
			v.ScheduleHash, b.ScheduleHash)
	}
}
