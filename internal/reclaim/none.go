package reclaim

import (
	"sync/atomic"

	"repro/internal/arena"
)

// None is the leaking baseline: protection is free, retire leaks. This is
// the "no reclamation" configuration the paper normalizes queue
// throughput against in Figures 1 and 2.
type None struct{ base }

// newNone builds the leaking baseline scheme.
func newNone(env Env, cfg Options) *None { return &None{newBase("none", env, cfg)} }

// GetProtected just loads the handle; nothing is ever freed, so no
// protection is necessary.
func (*None) GetProtected(_, _ int, addr *atomic.Uint64) arena.Handle {
	return arena.Handle(addr.Load())
}

// Retire leaks the object, counting it as permanently unreclaimed (the
// leak is global and visible as Stats().RetiredNotFreed; RetireDepth
// stays 0).
func (n *None) Retire(tid int, h arena.Handle) { n.onRetire(tid, h) }

// Unsafe frees on retire without any protection handshake. It is *wrong*
// by construction and exists so tests and the uafdemo example can show
// the arena's generation check catching the resulting use-after-free,
// the fault the paper attributes to reclaiming memory the system
// allocator may reuse.
type Unsafe struct{ base }

// newUnsafe builds the deliberately broken scheme.
func newUnsafe(env Env, cfg Options) *Unsafe { return &Unsafe{newBase("unsafe", env, cfg)} }

// GetProtected loads without protecting — the bug. Protect is a no-op,
// the same bug.
func (*Unsafe) GetProtected(_, _ int, addr *atomic.Uint64) arena.Handle {
	return arena.Handle(addr.Load())
}

// Retire frees immediately, regardless of concurrent readers.
func (u *Unsafe) Retire(tid int, h arena.Handle) {
	u.onRetire(tid, h)
	u.env.Free(tid, h.Unmarked())
	u.onFree(tid, h)
}
