// Package arena provides the manual-memory substrate for the OrcGC
// reproduction: a chunked slab allocator with explicit Alloc/Free,
// generation-checked 64-bit handles, and payload poisoning.
//
// The paper's reclamation schemes are about returning memory to an
// allocator while lock-free readers may still hold references. Go's
// garbage collector would silently keep every node alive and make all
// reclamation a no-op, so tracked objects live in arena slots instead of
// on the Go heap. A reference to a node is a Handle, not a pointer:
//
//	bits 63..62  tag bits (the mark/flag bits lock-free structures keep
//	             in low pointer bits in C/C++)
//	bits 61..32  slot generation (the low genBits bits of the slot's
//	             full-width generation counter, bumped on every Alloc and
//	             Free; odd while the object is live, so a handle — always
//	             minted with an odd generation — matches only its own
//	             lifetime)
//	bits 31..0   slot index
//
// Slot generation counters are wider than the genBits a handle can
// carry, so every comparison between a stored generation and a handle's
// generation masks the stored value down to genBits first (see
// genValMask). Masking preserves parity, so the odd-live/even-free
// liveness encoding survives the truncation; the masked value 0 is
// reserved for virgin (never-allocated) slots and is skipped when a
// counter wraps.
//
// Dereferencing a handle whose generation no longer matches the slot is
// the reproduction's equivalent of the segmentation fault the paper
// ascribes to touching memory the system allocator already returned to
// the OS: in Strict mode it panics, in Count mode it records a fault.
package arena

import "fmt"

// Handle is a tagged, generation-stamped reference to an arena slot.
// The zero Handle is the nil reference.
type Handle uint64

const (
	// Mark is the primary tag bit (the "logically deleted" mark of
	// Harris-style lists and the flag bit of the NM tree).
	Mark Handle = 1 << 63
	// Flag is the secondary tag bit (the NM tree needs two).
	Flag Handle = 1 << 62

	tagMask  Handle = Mark | Flag
	genBits         = 30
	genShift        = 32
	genMask  Handle = ((1 << genBits) - 1) << genShift
	idxMask  Handle = (1 << 32) - 1

	// genValMask truncates a raw (full-width) slot generation to the
	// genBits a handle packs. Slot generation counters may run wider
	// than genBits; every stored-vs-handle comparison masks with this
	// first, or a hot slot would spuriously fault forever once its raw
	// counter crossed 1<<genBits.
	genValMask uint32 = (1 << genBits) - 1
)

// Nil is the null handle.
const Nil Handle = 0

// Pack builds an untagged handle from a slot index and generation.
func Pack(idx uint32, gen uint32) Handle {
	return Handle(idx) | (Handle(gen&((1<<genBits)-1)) << genShift)
}

// Index returns the slot index of h.
func (h Handle) Index() uint32 { return uint32(h & idxMask) }

// Gen returns the generation stamp of h.
func (h Handle) Gen() uint32 { return uint32((h & genMask) >> genShift) }

// IsNil reports whether h is the nil reference (any tag bits are ignored:
// a marked nil is still nil as a reference).
func (h Handle) IsNil() bool { return h&^tagMask == 0 }

// Unmarked strips both tag bits, yielding the plain object reference.
func (h Handle) Unmarked() Handle { return h &^ tagMask }

// Marked reports whether the Mark tag bit is set.
func (h Handle) Marked() bool { return h&Mark != 0 }

// Flagged reports whether the Flag tag bit is set.
func (h Handle) Flagged() bool { return h&Flag != 0 }

// WithMark returns h with the Mark bit set.
func (h Handle) WithMark() Handle { return h | Mark }

// WithFlag returns h with the Flag bit set.
func (h Handle) WithFlag() Handle { return h | Flag }

// WithoutMark returns h with the Mark bit cleared.
func (h Handle) WithoutMark() Handle { return h &^ Mark }

// WithoutFlag returns h with the Flag bit cleared.
func (h Handle) WithoutFlag() Handle { return h &^ Flag }

// Tags returns only the tag bits of h.
func (h Handle) Tags() Handle { return h & tagMask }

// SameRef reports whether two handles name the same object, ignoring tags.
func (h Handle) SameRef(o Handle) bool { return h.Unmarked() == o.Unmarked() }

// String renders a handle for debugging.
func (h Handle) String() string {
	if h.IsNil() {
		if h.Tags() != 0 {
			return fmt.Sprintf("nil[tags=%x]", uint64(h.Tags())>>62)
		}
		return "nil"
	}
	s := fmt.Sprintf("h{idx=%d gen=%d", h.Index(), h.Gen())
	if h.Marked() {
		s += " M"
	}
	if h.Flagged() {
		s += " F"
	}
	return s + "}"
}
