package core

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

// TestReachabilityModel drives the domain with random sequences of
// Make/Store/Load/CopyPtr/CAS/Release/chain-link operations against a
// reference graph, then checks that after all local references die and
// the matrix is flushed, the arena's live population is exactly the set
// of nodes reachable from the surviving roots. This is the paper's
// automatic-reclamation contract stated as one property: an object is
// alive iff a root path or nothing — never more, never less.
//
// Ops 5–8 aim at clear's fresh-only ORC_ZERO check: never-linked Make
// objects must still die through the Ptr that held them (directly, via
// a CopyPtr that outlives the original, or after a failed CAS), and an
// object loaded from a link and then unlinked under that Ptr must die
// through the unlinking decrement.
func TestReachabilityModel(t *testing.T) {
	const (
		numRoots = 6
		numOps   = 4000
		seeds    = 8
	)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newTestDomain(1)
			roots := make([]Atomic, numRoots)

			// Reference model: node id → successor id (0 = nil), and
			// per-root current node id.
			type modelNode struct{ next int }
			model := map[int]*modelNode{}
			rootModel := make([]int, numRoots)
			handles := map[int]arena.Handle{}
			nextID := 1

			var p Ptr
			for op := 0; op < numOps; op++ {
				r := rng.Intn(numRoots)
				switch rng.Intn(9) {
				case 0: // fresh node into root r
					id := nextID
					nextID++
					h := d.Make(0, func(n *tNode) { n.Val = uint64(id) }, &p)
					d.Store(0, &roots[r], p.H())
					d.Release(0, &p)
					model[id] = &modelNode{}
					handles[id] = h
					rootModel[r] = id
				case 1: // clear root r
					d.Store(0, &roots[r], arena.Nil)
					rootModel[r] = 0
				case 2: // alias: root r := root r2
					r2 := rng.Intn(numRoots)
					h := d.LoadScratch(0, &roots[r2])
					var lp Ptr
					d.AdoptScratch(0, &lp, h)
					d.Store(0, &roots[r], lp.H())
					d.Release(0, &lp)
					rootModel[r] = rootModel[r2]
				case 3: // link: node-at-root-r.next := root r2's node
					if rootModel[r] == 0 {
						continue
					}
					r2 := rng.Intn(numRoots)
					// Refuse to create a cycle: OrcGC (like the paper,
					// §4) requires unreachable objects to be acyclic.
					cyc := false
					for id := rootModel[r2]; id != 0; id = model[id].next {
						if id == rootModel[r] {
							cyc = true
							break
						}
					}
					if cyc {
						continue
					}
					var a, b Ptr
					d.Load(0, &roots[r], &a)
					hb := d.Load(0, &roots[r2], &b)
					// Guard against model/structure divergence windows:
					// single-threaded, so they cannot diverge.
					node := d.Get(a.H())
					d.Store(0, &node.Next, hb)
					model[rootModel[r]].next = rootModel[r2]
					d.Release(0, &a)
					d.Release(0, &b)
				case 4: // unlink: node-at-root-r.next := nil
					if rootModel[r] == 0 {
						continue
					}
					var a Ptr
					d.Load(0, &roots[r], &a)
					node := d.Get(a.H())
					d.Store(0, &node.Next, arena.Nil)
					model[rootModel[r]].next = 0
					d.Release(0, &a)
				case 5: // Make and drop without linking
					d.Make(0, nil, &p)
					d.Release(0, &p)
				case 6: // Make, copy, release the original first
					var q Ptr
					h := d.Make(0, nil, &p)
					d.CopyPtr(0, &q, &p)
					d.Release(0, &p)
					if !d.arena.Valid(h) {
						t.Fatalf("seed %d: object freed while its copy holds it", seed)
					}
					d.Release(0, &q)
				case 7: // Make, then a CAS that fails
					// The fresh handle cannot be the root's current value.
					h := d.Make(0, nil, &p)
					if d.CAS(0, &roots[r], h, h) {
						t.Fatalf("seed %d: CAS against a never-linked handle succeeded", seed)
					}
					d.Release(0, &p)
				case 8: // Load a node, unlink it under that Ptr, release
					if rootModel[r] == 0 {
						continue
					}
					var a Ptr
					d.Load(0, &roots[r], &a)
					d.Store(0, &roots[r], arena.Nil)
					if d.Get(a.H()).Val != uint64(rootModel[r]) {
						t.Fatalf("seed %d: loaded node damaged after unlink", seed)
					}
					rootModel[r] = 0
					d.Release(0, &a)
				}
			}

			// Compute the model's reachable set.
			reachable := map[int]bool{}
			var mark func(id int)
			mark = func(id int) {
				for id != 0 && !reachable[id] {
					reachable[id] = true
					id = model[id].next
				}
			}
			for _, id := range rootModel {
				mark(id)
			}

			d.FlushAll()
			live := d.arena.Stats().Live
			if live != int64(len(reachable)) {
				t.Fatalf("seed %d: live=%d, model reachable=%d", seed, live, len(reachable))
			}
			// Every reachable node must still be valid and hold its id.
			for id := range reachable {
				h := handles[id]
				if !d.arena.Valid(h) {
					t.Fatalf("seed %d: reachable node %d was freed", seed, id)
				}
				if d.Get(h).Val != uint64(id) {
					t.Fatalf("seed %d: node %d payload corrupted", seed, id)
				}
			}
			// And tearing down the roots must reclaim everything.
			for i := range roots {
				d.Store(0, &roots[i], arena.Nil)
			}
			d.FlushAll()
			if live := d.arena.Stats().Live; live != 0 {
				t.Fatalf("seed %d: %d nodes leaked after teardown", seed, live)
			}
		})
	}
}
