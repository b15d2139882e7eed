package bench

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyCfg() Config {
	return Config{
		Threads:  []int{1, 2},
		Duration: 25 * time.Millisecond,
		Runs:     1,
		KeysList: 64,
		KeysBig:  256,
	}
}

func TestRegistryQueueNamesConstruct(t *testing.T) {
	for _, name := range QueueNames() {
		inst := NewQueue(name, 2)
		inst.Queue.Enqueue(0, 7)
		if v, ok := inst.Queue.Dequeue(1); !ok || v != 7 {
			t.Fatalf("%s: roundtrip got %d ok=%v", name, v, ok)
		}
		if inst.Mem == nil {
			t.Fatalf("%s: no mem hook", name)
		}
		_ = inst.Mem()
	}
}

func TestRegistrySetNamesConstruct(t *testing.T) {
	names := append(append(ListSchemeNames(), OrcListNames()...), TreeSkipNames()...)
	names = append(names, HashMapNames()...)
	for _, name := range names {
		inst := NewSet(name, 2)
		if !inst.Set.Insert(0, 5) || !inst.Set.Contains(1, 5) || !inst.Set.Remove(0, 5) {
			t.Fatalf("%s: basic ops failed", name)
		}
		if inst.Mem == nil {
			t.Fatalf("%s: no mem hook", name)
		}
	}
}

func TestRegistryUnknownPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewQueue("bogus", 1) },
		func() { NewSet("bogus", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRunSetProducesThroughput(t *testing.T) {
	r := RunSet(setFactory("list-orc"), 2, 64, MixRead, 30*time.Millisecond, 2)
	if r.OpsPerSec <= 0 {
		t.Fatal("no throughput measured")
	}
	if len(r.Runs) != 2 {
		t.Fatalf("expected 2 runs, got %d", len(r.Runs))
	}
}

func TestRunQueuePairs(t *testing.T) {
	r := RunQueuePairs(queueFactory("ms-orc"), 2, 30*time.Millisecond, 1)
	if r.OpsPerSec <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestMixString(t *testing.T) {
	if MixWrite.String() != "50i-50r-0c" {
		t.Fatalf("got %s", MixWrite.String())
	}
	if MixRO.String() != "0i-0r-100c" {
		t.Fatalf("got %s", MixRO.String())
	}
}

func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range FigureIDs() {
		t.Run("fig"+id, func(t *testing.T) {
			if err := Figure(id, tinyCfg(), io.Discard); err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
		})
	}
}

// TestFigureUnknown: the paper's even-numbered (AMD) figures are not
// reproduced, so their ids are unknown like any other.
func TestFigureUnknown(t *testing.T) {
	for _, id := range []string{"2", "4", "6", "8", "99"} {
		if err := Figure(id, tinyCfg(), io.Discard); err == nil {
			t.Fatalf("expected error for unknown figure %q", id)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	dir := t.TempDir()
	series := []Series{
		{Name: "a", Points: map[int]float64{1: 1.5, 2: 2.5}},
		{Name: "b", Points: map[int]float64{1: 3.5}},
	}
	if err := WriteTSV(dir, "test", series); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "threads\ta\tb") {
		t.Fatalf("bad header: %q", got)
	}
	if !strings.Contains(got, "2\t2.500\t-") {
		t.Fatalf("missing row / missing-point dash: %q", got)
	}
}

func TestPrintTable(t *testing.T) {
	var sb strings.Builder
	PrintTable(&sb, "demo", []Series{{Name: "x", Points: map[int]float64{4: 1.25}}})
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.250") {
		t.Fatalf("bad table: %q", out)
	}
}

func TestSortedThreads(t *testing.T) {
	got := SortedThreads([]Series{
		{Points: map[int]float64{8: 1, 1: 1}},
		{Points: map[int]float64{4: 1}},
	})
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMeasureBoundPTP(t *testing.T) {
	res := MeasureBoundObs("ptp", 4, 3, 50*time.Millisecond, 0)
	if res.MaxPending > 4*4 {
		t.Fatalf("PTP bound violated: %d", res.MaxPending)
	}
	if res.Freed == 0 {
		t.Fatal("nothing freed under churn")
	}
}
