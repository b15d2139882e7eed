package rt

import (
	"sync"
	"testing"
)

func TestRegistryAcquireRelease(t *testing.T) {
	r := NewRegistry(4)
	a := r.Acquire()
	b := r.Acquire()
	if a == b {
		t.Fatalf("duplicate tids %d %d", a, b)
	}
	if a != 0 || b != 1 {
		t.Fatalf("expected dense low tids, got %d %d", a, b)
	}
	r.Release(a)
	c := r.Acquire()
	if c != a {
		t.Fatalf("released tid not reused: got %d want %d", c, a)
	}
	r.Release(b)
	r.Release(c)
}

func TestRegistryFullPanics(t *testing.T) {
	r := NewRegistry(2)
	r.Acquire()
	r.Acquire()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when registry exhausted")
		}
	}()
	r.Acquire()
}

func TestRegistryDoubleReleasePanics(t *testing.T) {
	r := NewRegistry(2)
	tid := r.Acquire()
	r.Release(tid)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	r.Release(tid)
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(64)
	var wg sync.WaitGroup
	seen := make(chan int, 64*100)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tid := r.Acquire()
				seen <- tid
				r.Release(tid)
			}
		}()
	}
	wg.Wait()
	close(seen)
	for tid := range seen {
		if tid < 0 || tid >= 64 {
			t.Fatalf("tid %d out of range", tid)
		}
	}
}

func TestConcurrentUniqueTids(t *testing.T) {
	r := NewRegistry(32)
	var mu sync.Mutex
	held := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := r.Acquire()
			mu.Lock()
			if held[tid] {
				mu.Unlock()
				panic("tid handed out twice concurrently")
			}
			held[tid] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(held) != 32 {
		t.Fatalf("expected 32 distinct tids, got %d", len(held))
	}
}

func TestBackoffTerminates(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		b.Spin()
	}
	b.Reset()
	b.Spin()
}

func TestPaddedUint64Ops(t *testing.T) {
	var p PaddedUint64
	p.Store(5)
	if p.Add(3) != 8 {
		t.Fatal("Add")
	}
	if !p.CompareAndSwap(8, 10) {
		t.Fatal("CAS")
	}
	if p.Swap(0) != 10 {
		t.Fatal("Swap")
	}
	if p.Load() != 0 {
		t.Fatal("Load")
	}
}
