// Package rt supplies small runtime substrates shared by the reclamation
// schemes and data structures: a thread-id registry standing in for the
// C++ implementation's thread_local tid, cache-line padded counters, a
// bounded exponential backoff, and the seeded generators (SplitMix64,
// Mix64, PCG) that torture schedules, bench key streams and the cluster
// ring share.
package rt

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// CacheLine is the padding granularity used to keep per-thread hot words
// on distinct cache lines (128 covers adjacent-line prefetching).
const CacheLine = 128

// MaxThreads is the default registry capacity.
const MaxThreads = 256

// Registry hands out dense thread ids in [0, cap). Every worker goroutine
// that touches a reclamation scheme acquires a tid for its lifetime and
// releases it when done, mirroring the per-thread arrays the paper
// indexes with thread_local tids.
type Registry struct {
	capacity int
	slots    []PaddedUint64 // 0 = free, 1 = taken
}

// NewRegistry creates a registry for up to capacity threads.
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = MaxThreads
	}
	return &Registry{capacity: capacity, slots: make([]PaddedUint64, capacity)}
}

// Acquire claims the lowest free tid. It panics if the registry is full —
// a configuration error, not a runtime condition.
func (r *Registry) Acquire() int {
	for tid := 0; tid < r.capacity; tid++ {
		if r.slots[tid].Load() == 0 && r.slots[tid].CompareAndSwap(0, 1) {
			return tid
		}
	}
	panic(fmt.Sprintf("rt: registry full (%d threads)", r.capacity))
}

// Release returns tid to the pool.
func (r *Registry) Release(tid int) {
	if tid < 0 || tid >= r.capacity || !r.slots[tid].CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("rt: release of unowned tid %d", tid))
	}
}

// Cap returns the registry capacity.
func (r *Registry) Cap() int { return r.capacity }

// PaddedUint64 is an atomic uint64 alone on its cache line.
type PaddedUint64 struct {
	v atomic.Uint64
	_ [CacheLine - 8]byte
}

// Load returns the value.
func (p *PaddedUint64) Load() uint64 { return p.v.Load() }

// Store sets the value.
func (p *PaddedUint64) Store(x uint64) { p.v.Store(x) }

// Add adds delta and returns the new value.
func (p *PaddedUint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

// CompareAndSwap performs a CAS.
func (p *PaddedUint64) CompareAndSwap(old, new uint64) bool { return p.v.CompareAndSwap(old, new) }

// Swap exchanges the value.
func (p *PaddedUint64) Swap(x uint64) uint64 { return p.v.Swap(x) }

// Backoff is a bounded exponential spin backoff for CAS retry loops.
type Backoff struct {
	n int
}

// Spin waits a little longer than last time, yielding to the scheduler
// once the spin budget saturates.
func (b *Backoff) Spin() {
	if b.n < 10 {
		b.n++
	}
	for i := 0; i < 1<<b.n; i++ {
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

// Reset returns the backoff to its initial (shortest) delay.
func (b *Backoff) Reset() { b.n = 0 }
