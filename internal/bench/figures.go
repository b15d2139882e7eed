package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/rt"
)

// Config controls a figure run. Defaults are CI-scale; the artifact-
// scale settings the paper used are documented in EXPERIMENTS.md.
type Config struct {
	Threads  []int
	Duration time.Duration
	Runs     int
	KeysList uint64 // Figures 3–6 key range (paper: 1e3)
	KeysBig  uint64 // Figures 7–8 key range (paper: 1e6)
	DataDir  string // TSV output directory ("" = don't write)
	Swap     bool   // publish-with-exchange ablation (the "AMD" figures)
	// SamplePeriod is the obs.Sampler cadence for the backlog time
	// series in the Table 1 harness (default 1ms).
	SamplePeriod time.Duration
}

// Defaults returns a configuration that finishes in seconds.
func Defaults() Config {
	return Config{
		Threads:  []int{1, 2, 4, 8},
		Duration: 300 * time.Millisecond,
		Runs:     1,
		KeysList: 1000,
		KeysBig:  100_000,
	}
}

func (c *Config) normalize() {
	d := Defaults()
	if len(c.Threads) == 0 {
		c.Threads = d.Threads
	}
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.KeysList == 0 {
		c.KeysList = d.KeysList
	}
	if c.KeysBig == 0 {
		c.KeysBig = d.KeysBig
	}
}

func (c *Config) applyPublishMode() func() {
	prevC := core.PublishWithSwap.Load()
	prevR := reclaim.PublishWithSwap.Load()
	core.PublishWithSwap.Store(c.Swap)
	reclaim.PublishWithSwap.Store(c.Swap)
	return func() {
		core.PublishWithSwap.Store(prevC)
		reclaim.PublishWithSwap.Store(prevR)
	}
}

// Figure runs one of the paper's figures/experiments by id:
// "1","2" queues; "3","4" list × schemes; "5","6" lists × OrcGC;
// "7","8" tree + skip lists; "mem" the §5 footprint experiment;
// "table1" the measured memory-bound table.
func Figure(id string, cfg Config, w io.Writer) error {
	cfg.normalize()
	switch id {
	case "1":
		return figQueues(cfg, w, "Figure 1: queues, enq/deq pairs, normalized to no-reclamation (store publish)")
	case "2":
		cfg.Swap = true
		return figQueues(cfg, w, "Figure 2: queues, enq/deq pairs, normalized (exchange-publish ablation standing in for the AMD machine)")
	case "3":
		return figListSchemes(cfg, w, "Figure 3: Michael-Harris list 10^3 keys, reclamation schemes (store publish)")
	case "4":
		cfg.Swap = true
		return figListSchemes(cfg, w, "Figure 4: Michael-Harris list 10^3 keys, schemes (exchange-publish ablation / AMD)")
	case "5":
		return figOrcLists(cfg, w, "Figure 5: four linked lists under OrcGC, 10^3 keys (store publish)")
	case "6":
		cfg.Swap = true
		return figOrcLists(cfg, w, "Figure 6: four linked lists under OrcGC (exchange-publish ablation / AMD)")
	case "7":
		return figTreeSkip(cfg, w, "Figure 7: NM-tree and skip lists, large key range (store publish)")
	case "8":
		cfg.Swap = true
		return figTreeSkip(cfg, w, "Figure 8: NM-tree and skip lists (exchange-publish ablation / AMD)")
	case "mem":
		return MemFootprint(cfg, w)
	case "table1":
		return Table1Bounds(cfg, w)
	default:
		return fmt.Errorf("bench: unknown figure %q", id)
	}
}

// FigureIDs lists every runnable experiment id in paper order.
func FigureIDs() []string {
	return []string{"1", "2", "3", "4", "5", "6", "7", "8", "mem", "table1"}
}

func figQueues(cfg Config, w io.Writer, title string) error {
	restore := cfg.applyPublishMode()
	defer restore()
	pairs := [][2]string{
		{"ms-orc", "ms-leak"},
		{"lcrq-orc", "lcrq-leak"},
		{"kp-orc", "kp-leak"},
		{"turn-orc", "turn-leak"},
	}
	var norm, abs []Series
	for _, p := range pairs {
		orcS := Series{Name: p[0] + "/leak", Points: map[int]float64{}}
		absS := Series{Name: p[0] + " Mops", Points: map[int]float64{}}
		for _, t := range cfg.Threads {
			orc := RunQueuePairs(queueFactory(p[0]), t, cfg.Duration, cfg.Runs)
			leak := RunQueuePairs(queueFactory(p[1]), t, cfg.Duration, cfg.Runs)
			if leak.OpsPerSec > 0 {
				orcS.Points[t] = orc.OpsPerSec / leak.OpsPerSec
			}
			absS.Points[t] = orc.OpsPerSec / 1e6
		}
		norm = append(norm, orcS)
		abs = append(abs, absS)
	}
	PrintTable(w, title, norm)
	PrintTable(w, "  (absolute OrcGC throughput, Mops/s)", abs)
	fname := "fig1-queues"
	if cfg.Swap {
		fname = "fig2-queues-swap"
	}
	return WriteTSV(cfg.DataDir, fname, norm)
}

func queueFactory(name string) func(int) QueueInstance {
	return func(t int) QueueInstance { return NewQueue(name, t) }
}

func setFactory(name string) func(int) SetInstance {
	return func(t int) SetInstance { return NewSet(name, t) }
}

func figListSchemes(cfg Config, w io.Writer, title string) error {
	restore := cfg.applyPublishMode()
	defer restore()
	for _, mix := range []Mix{MixWrite, MixRead, MixRO} {
		var series []Series
		for _, name := range ListSchemeNames() {
			s := Series{Name: name, Points: map[int]float64{}}
			for _, t := range cfg.Threads {
				r := RunSet(setFactory(name), t, cfg.KeysList, mix, cfg.Duration, cfg.Runs)
				s.Points[t] = r.OpsPerSec / 1e6
			}
			series = append(series, s)
		}
		PrintTable(w, fmt.Sprintf("%s — mix %s (Mops/s)", title, mix), series)
		fname := fmt.Sprintf("fig3-list-%s", mix)
		if cfg.Swap {
			fname = fmt.Sprintf("fig4-list-%s-swap", mix)
		}
		if err := WriteTSV(cfg.DataDir, fname, series); err != nil {
			return err
		}
	}
	return nil
}

func figOrcLists(cfg Config, w io.Writer, title string) error {
	restore := cfg.applyPublishMode()
	defer restore()
	for _, mix := range []Mix{MixWrite, MixRead, MixRO} {
		var series []Series
		for _, name := range OrcListNames() {
			s := Series{Name: name, Points: map[int]float64{}}
			for _, t := range cfg.Threads {
				r := RunSet(setFactory(name), t, cfg.KeysList, mix, cfg.Duration, cfg.Runs)
				s.Points[t] = r.OpsPerSec / 1e6
			}
			series = append(series, s)
		}
		PrintTable(w, fmt.Sprintf("%s — mix %s (Mops/s)", title, mix), series)
		fname := fmt.Sprintf("fig5-orclists-%s", mix)
		if cfg.Swap {
			fname = fmt.Sprintf("fig6-orclists-%s-swap", mix)
		}
		if err := WriteTSV(cfg.DataDir, fname, series); err != nil {
			return err
		}
	}
	return nil
}

func figTreeSkip(cfg Config, w io.Writer, title string) error {
	restore := cfg.applyPublishMode()
	defer restore()
	for _, mix := range []Mix{MixWrite, MixRead, MixRO} {
		var series []Series
		for _, name := range TreeSkipNames() {
			s := Series{Name: name, Points: map[int]float64{}}
			for _, t := range cfg.Threads {
				r := RunSet(setFactory(name), t, cfg.KeysBig, mix, cfg.Duration, cfg.Runs)
				s.Points[t] = r.OpsPerSec / 1e6
			}
			series = append(series, s)
		}
		PrintTable(w, fmt.Sprintf("%s — mix %s (Mops/s)", title, mix), series)
		fname := fmt.Sprintf("fig7-treeskip-%s", mix)
		if cfg.Swap {
			fname = fmt.Sprintf("fig8-treeskip-%s-swap", mix)
		}
		if err := WriteTSV(cfg.DataDir, fname, series); err != nil {
			return err
		}
	}
	return nil
}

// MemFootprint is the §5 memory claim: under identical churn, HS-skip's
// unreclaimed population (removed nodes chained to each other) dwarfs
// CRF-skip's. The paper reports ≈19 GB vs <1 GB on the 30-hour run; the
// shape here is the live high-water ratio.
func MemFootprint(cfg Config, w io.Writer) error {
	cfg.normalize()
	threads := cfg.Threads[len(cfg.Threads)-1]
	if threads < 2 {
		threads = 2
	}
	var series []Series
	fmt.Fprintf(w, "\n== §5 memory footprint: HS-skip vs CRF-skip, %d threads, 50i/50r churn ==\n", threads)
	for _, name := range []string{"hsskip-orc", "crfskip-orc"} {
		r := RunSet(setFactory(name), threads, cfg.KeysList, MixWrite, cfg.Duration*2, 1)
		fmt.Fprintf(w, "%-12s live=%8d  max-live=%8d  (ops/s %.0f)\n",
			name, r.Mem.Live, r.Mem.MaxLive, r.OpsPerSec)
		series = append(series, Series{Name: name, Points: map[int]float64{threads: float64(r.Mem.MaxLive)}})
	}
	return WriteTSV(cfg.DataDir, "mem-footprint", series)
}

// Table1Bounds measures the bound column of Table 1: maximum retired-
// but-not-freed objects per scheme under an adversarial protect/retire
// stress, next to the paper's asymptotic bound.
func Table1Bounds(cfg Config, w io.Writer) error {
	cfg.normalize()
	threads := cfg.Threads[len(cfg.Threads)-1]
	if threads < 4 {
		threads = 4
	}
	const hps = 3
	type row struct {
		scheme string
		bound  string
	}
	rows := []row{
		{"ebr", "unbounded (blocking)"},
		{"hp", "O(H t^2)"},
		{"ptb", "O(H t^2)"},
		{"he", "O(#L H t^2)"},
		{"ibr", "O(#L H t^2)"},
		{"ptp", "O(H t) — t(H+1) exactly"},
		{"none", "infinite (leak)"},
	}
	fmt.Fprintf(w, "\n== Table 1 (measured): max retired-not-freed, t=%d threads, H=%d ==\n", threads, hps)
	fmt.Fprintf(w, "%-8s %12s %12s %10s   %s\n", "scheme", "maxPending", "sampledMax", "freed", "paper bound")
	for _, r := range rows {
		res := MeasureBoundObs(r.scheme, threads, hps, cfg.Duration, cfg.SamplePeriod)
		fmt.Fprintf(w, "%-8s %12d %12d %10d   %s\n", r.scheme, res.MaxPending, res.SampledMaxPending, res.Freed, r.bound)
		if r.scheme == "ptp" && res.MaxPending > int64(threads*(hps+1)) {
			return fmt.Errorf("PTP bound violated: %d > %d", res.MaxPending, threads*(hps+1))
		}
	}
	fmt.Fprintf(w, "(PTP's hard bound is t(H+1) = %d)\n", threads*(hps+1))
	return nil
}

type boundNode struct{ self uint64 }

// BoundResult is one Table 1 measurement. MaxPending is the high-water
// retired-not-freed count from the scheme's own counters: exact for PTP
// (used for the t(H+1) enforcement), the sum of per-thread peaks for
// the other schemes (reclaim.Stats); SampledMaxPending is the same
// backlog as seen through the obs.Sampler cadence — the figure
// cmd/membound and the kvserver report, kept here so the bench harness
// and the service share one source of truth for "how deep did the
// backlog get".
type BoundResult struct {
	Scheme            string
	MaxPending        int64
	SampledMaxPending int64
	Freed             uint64
}

// MeasureBound runs the adversarial stress from the reclaim tests at
// benchmark scale and reports the scheme's high-water pending count.
func MeasureBound(scheme string, threads, hps int, dur time.Duration) (maxPending int64, freed uint64) {
	res := MeasureBoundObs(scheme, threads, hps, dur, 0)
	return res.MaxPending, res.Freed
}

// MeasureBoundObs is MeasureBound with the observability layer attached:
// the scheme is constructed with a private obs.Registry and a Sampler
// polls its pending gauge every samplePeriod (default 1ms) for the
// sampled-backlog column.
func MeasureBoundObs(scheme string, threads, hps int, dur, samplePeriod time.Duration) BoundResult {
	if samplePeriod <= 0 {
		samplePeriod = time.Millisecond
	}
	reg := obs.NewRegistry()
	a := arena.New[boundNode]()
	s := reclaim.MustNew(scheme, reclaim.Env{Free: a.FreeT, Hdr: a.Header},
		reclaim.Options{MaxThreads: threads, MaxHPs: hps, Label: scheme, Metrics: reg})
	sampler := obs.NewSampler(reg, samplePeriod)
	sampler.Register("backlog", func() int64 { return s.Stats().RetiredNotFreed })
	sampler.Start()
	defer sampler.Stop()

	slots := make([]atomic.Uint64, 64)
	for i := range slots {
		h, p := a.Alloc()
		p.self = uint64(h)
		s.OnAlloc(h)
		slots[i].Store(uint64(h))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	readers := threads / 2
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rt.PaddedUint64{}
			rng.Store(uint64(tid + 1))
			x := uint64(tid + 1)
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				s.BeginOp(tid)
				s.GetProtected(tid, int(x>>32)%hps, &slots[x%uint64(len(slots))])
				if x%5 == 0 {
					s.ClearAll(tid)
					s.EndOp(tid)
				}
			}
			s.ClearAll(tid)
			s.EndOp(tid)
		}(w)
	}
	for w := readers; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			x := uint64(tid * 977)
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				h, p := a.AllocT(tid)
				p.self = uint64(h)
				s.OnAlloc(h)
				old := arena.Handle(slots[x%uint64(len(slots))].Swap(uint64(h)))
				if !old.IsNil() {
					s.Retire(tid, old)
				}
			}
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	sampler.Stop()
	st := s.Stats()
	return BoundResult{
		Scheme:            scheme,
		MaxPending:        st.MaxRetiredNotFreed,
		SampledMaxPending: sampler.Max("backlog"),
		Freed:             st.Freed,
	}
}
