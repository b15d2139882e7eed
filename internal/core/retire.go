package core

import (
	"repro/internal/arena"
	"repro/internal/rt"
)

// retire is Algorithm 5 lines 92–118. The caller owns the object: it won
// the CAS that set BRETIRED. The object is deleted only once a full
// hazardous-pointer scan finds no protection while the _orc sequence
// stays unchanged (Lemma 1); if the scan finds a protection, the object
// is handed over to the protecting slot; if the counter moved, BRETIRED
// is cleared and responsibility is re-negotiated.
//
// Deleting an object decrements its children, which can cascade; nested
// retires triggered while retireStarted is set are queued on
// recursiveList and processed iteratively, keeping stack depth O(1).
func (d *Domain[T]) retire(tid int, h arena.Handle) {
	t := d.tl[tid]
	rt.Step(rt.SiteRetire, tid)
	inc(&t.retires)
	if t.retireStarted {
		t.recursive = append(t.recursive, h)
		return
	}
	t.retireStarted = true
	for i := 0; ; i++ {
		for !h.IsNil() {
			orc := d.arena.HdrA(h)
			lorc := orc.Load()
			if ocnt(lorc) != bretired|orcZero {
				// The counter moved since BRETIRED was set: a local
				// reference re-linked the object. Step down; if the
				// counter is back at zero afterwards we re-own it.
				if lorc = d.clearBitRetired(tid, h); lorc == 0 {
					break
				}
			}
			if d.tryHandover(&h) {
				continue
			}
			lorc2 := orc.Load()
			if lorc2 != lorc {
				// Sequence moved during the scan: a protection may
				// have slipped behind it (Lemma 1 fails). Re-validate
				// ownership and rescan.
				if ocnt(lorc2) != bretired|orcZero {
					if d.clearBitRetired(tid, h) == 0 {
						break
					}
				}
				continue
			}
			d.deleteObj(tid, h)
			break
		}
		if i >= len(t.recursive) {
			break
		}
		h = t.recursive[i]
	}
	t.recursive = t.recursive[:0]
	t.retireStarted = false
}

// tryHandover is Algorithm 6 lines 134–145: scan every published
// hazardous pointer up to the index and tid watermarks; on a match,
// exchange the object into the paired handover slot and adopt whatever
// was parked there. A row past the tid watermark read here belongs to a
// thread whose first publication is ordered after this load, so the
// publisher's validating re-read (or Lemma 1's sequence check) covers it.
func (d *Domain[T]) tryHandover(h *arena.Handle) bool {
	lmax := int32(d.maxHPs.Load())
	lthr := int(d.maxTids.Load())
	for it := 0; it < lthr; it++ {
		t := d.tl[it]
		for idx := int32(0); idx < lmax; idx++ {
			if uint64(*h) == t.hp[idx].Load() {
				*h = arena.Handle(t.handovers[idx].Swap(uint64(*h)))
				return true
			}
		}
	}
	return false
}

// clearBitRetired is Algorithm 6 lines 147–158: relinquish retirement.
// Publishing h in the scratch slot first satisfies Proposition 1 for the
// counter update. Returns the post-CAS _orc value if the counter was back
// at zero and this thread re-acquired BRETIRED (it still owns the
// object), or 0 if ownership lapsed.
func (d *Domain[T]) clearBitRetired(tid int, h arena.Handle) uint64 {
	t := d.tl[tid]
	d.pub(t, 0, uint64(h))
	orc := d.arena.HdrA(h)
	lorc := orc.Add(^bretired + 1) // fetch_add(-BRETIRED)
	if ocnt(lorc) == orcZero && orc.CompareAndSwap(lorc, lorc+bretired) {
		d.pub(t, 0, 0)
		return lorc + bretired
	}
	d.pub(t, 0, 0)
	return 0
}

// deleteObj destroys the object: visit every orc_atomic field to drop the
// hard links it holds (the C++ member-destructor walk, Algorithm 4 lines
// 58–61), then return the slot to the arena.
func (d *Domain[T]) deleteObj(tid int, h arena.Handle) {
	obj := d.arena.Get(h)
	if d.links != nil {
		d.links(obj, func(a *Atomic) {
			d.decrementOrc(tid, arena.Handle(a.v.Load()))
		})
	}
	rt.Step(rt.SiteReclaim, tid)
	d.arena.FreeT(tid, h)
	inc(&d.tl[tid].frees)
}
