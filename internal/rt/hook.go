package rt

import "sync/atomic"

// Torture-harness injection points. The arena, the manual reclamation
// schemes and the OrcGC core call Step at the few places where an
// adversarial scheduler can do the most damage: right after a
// protection loop stabilizes (a reader parked here holds a pinned
// reference), inside a speculative read's validation window, on the
// retire and free paths, and around the allocator's slot transitions. internal/torture installs a hook that turns these
// call sites into forced runtime.Gosched perturbation points and
// stall gates; with no hook installed the cost is a single atomic bool
// load and an untaken branch, so the hot paths stay uninstrumented in
// production.

// Site identifies one class of injection point.
type Site uint8

const (
	// SiteProtect fires after a protection loop has validated its
	// publication — the caller holds a hazardous reference (or an
	// epoch/era reservation) across whatever happens inside the hook.
	SiteProtect Site = iota
	// SiteRetire fires when an unreachable object is handed to a
	// scheme's retire path, before any scan.
	SiteRetire
	// SiteReclaim fires when a scheme actually frees a retired object.
	SiteReclaim
	// SiteAlloc fires inside the arena's alloc path, between claiming a
	// slot and publishing its new generation.
	SiteAlloc
	// SiteFree fires inside the arena's free path, after the generation
	// bump invalidated outstanding handles.
	SiteFree
	// SitePeek fires inside a speculative (publish-free) read, between
	// reading a node's fields and validating its generation: a reader
	// held here has no protection, so writers may free and recycle the
	// node under it and the validation must catch that.
	SitePeek

	// NumSites is the number of distinct injection sites.
	NumSites
)

var (
	hookOn atomic.Bool
	hookFn atomic.Pointer[func(Site, int)]
)

// SetHook installs f as the global injection hook (nil uninstalls).
// Install/uninstall only around a torture run: the flag flip is atomic,
// but a hook that mutates shared state must itself be safe against
// calls racing the uninstall.
func SetHook(f func(site Site, tid int)) {
	if f == nil {
		hookOn.Store(false)
		hookFn.Store(nil)
		return
	}
	hookFn.Store(&f)
	hookOn.Store(true)
}

// Step is the injection point. tid is the calling reclamation thread
// (-1 when the caller has no tid). The disabled fast path is one atomic
// load.
func Step(site Site, tid int) {
	if hookOn.Load() {
		if f := hookFn.Load(); f != nil {
			(*f)(site, tid)
		}
	}
}
