package obs

import (
	"sync"
	"time"
)

// Sampler periodically evaluates registered sources into gauges named
// "sampled/<name>" in its registry. It exists for figures that need a
// *cadenced* time series with a high-water mark — the paper's
// retired-but-unreclaimed backlog above all — rather than a value at
// whatever instant a scrape happens to land. `orcbench -fig table1` and
// the kvserver both read backlog figures from one Sampler, so there is a
// single source of truth for "how deep did the retire backlog get".
type Sampler struct {
	reg      *Registry
	interval time.Duration

	mu      sync.Mutex
	sources []samplerSource
	stop    chan struct{}
	done    chan struct{}

	ticks *Gauge
}

type samplerSource struct {
	name string
	fn   func() int64
	g    *Gauge
}

// NewSampler creates a sampler feeding reg every interval (default
// 250ms when interval <= 0).
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Sampler{reg: reg, interval: interval, ticks: reg.Gauge("sampler/ticks")}
}

// Register adds a source. Its value lands in gauge "sampled/<name>"
// (current reading + high-water) on every tick. Safe to call before or
// after Start.
func (s *Sampler) Register(name string, fn func() int64) {
	if s == nil || fn == nil {
		return
	}
	g := s.reg.Gauge("sampled/" + name)
	s.mu.Lock()
	s.sources = append(s.sources, samplerSource{name: name, fn: fn, g: g})
	s.mu.Unlock()
}

// SampleOnce evaluates every source immediately. Tests and quiescent
// readers use it to avoid racing the ticker.
func (s *Sampler) SampleOnce() {
	if s == nil {
		return
	}
	s.mu.Lock()
	srcs := make([]samplerSource, len(s.sources))
	copy(srcs, s.sources)
	s.mu.Unlock()
	for _, src := range srcs {
		src.g.Set(src.fn())
	}
	s.ticks.Add(1)
}

// Start launches the background loop. Starting an already-running
// sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SampleOnce()
			}
		}
	}()
}

// Stop halts the loop, takes one final sample (so short runs always
// observe at least one reading), and waits for the goroutine to exit.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	s.SampleOnce()
}

// Last returns the most recent reading of a source (0 if never sampled).
func (s *Sampler) Last(name string) int64 {
	if s == nil {
		return 0
	}
	return s.reg.Gauge("sampled/" + name).Value()
}

// Max returns the high-water reading of a source.
func (s *Sampler) Max(name string) int64 {
	if s == nil {
		return 0
	}
	return s.reg.Gauge("sampled/" + name).Max()
}
