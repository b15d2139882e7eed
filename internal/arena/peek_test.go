package arena

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// peekKey is a speculative reader's read-then-validate: it reads Key
// through TryGet with a plain load and keeps it only if the generation
// still matches afterwards. It is //go:norace because the plain load
// races, by design, with the arena's own plain stores to a freed and
// recycled slot; the validation is what makes the value trustworthy.
//
//go:norace
func peekKey(a *Arena[node], h Handle) (uint64, bool) {
	p, ok := a.TryGet(h)
	if !ok {
		return 0, false
	}
	k := p.Key
	return k, a.Valid(h)
}

// TestPeekValidationRejectsPoison cycles one slot through alloc, Key = K,
// publish, free, while a reader peeks the published handle and validates.
// A validated read must never return Key == 0: the free path bumps the
// generation before it poisons the payload, so a read that saw the
// poison also sees the new generation. With the opposite order (poison,
// then bump) this test fails on every run on a 2-core host, with or
// without -race: the reader accepts the zeroed husk 9 to 1 300 times.
func TestPeekValidationRejectsPoison(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps: the reader must run inside the writer's free path")
	}
	const key = 0x5eed
	const cycles = 100_000
	a := New[node](WithShards(1))
	var cur atomic.Uint64
	var done, validated atomic.Bool
	var accepted, poisoned atomic.Uint64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var ok, bad uint64
		for !done.Load() {
			if k, valid := peekKey(a, Handle(cur.Load())); valid {
				if ok++; ok == 1 {
					validated.Store(true)
				}
				if k != key {
					bad++
				}
			}
		}
		accepted.Store(ok)
		poisoned.Store(bad)
	}()
	// Past the fixed cycles, keep going until the reader has validated
	// once: on a loaded host its thread may not run during the first
	// 100 000 cycles at all.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < cycles || !validated.Load() && time.Now().Before(deadline); i++ {
		h, p := a.AllocT(0) // the LIFO magazine hands back the same slot
		p.Key = key
		cur.Store(uint64(h))
		a.FreeT(0, h)
	}
	done.Store(true)
	<-finished
	if n := poisoned.Load(); n != 0 {
		t.Fatalf("%d validated reads returned a poisoned payload (of %d accepted)", n, accepted.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("the reader never validated a read: the test exercised nothing")
	}
}
