// Package cluster is orccluster: a consistent-hash sharded proxy that
// fronts N kvserver backends (each free to run a different reclamation
// scheme) behind the same length-prefixed wire protocol, adding
// replication, hedged reads, circuit-broken backend lanes, and live
// topology changes. Existing clients (kvload, kvstore.Client) work
// against a proxy unmodified.
//
// The partition map is this file: an immutable consistent-hash ring in
// the equal-slot variant (Dynamo's "strategy 3"). Instead of scattering
// each node's virtual nodes at random positions — whose exponential arc
// lengths leave per-node shares ~1/√vnodes wide, outside ±10% at 128 —
// the circle is pre-cut into Q equal slots (Q sized from the vnode
// budget) and each slot's replica preference order is decided by
// highest-random-weight hashing over the node set. That keeps the two
// properties that matter and tightens the third:
//
//   - minimal movement: adding a node only inserts it into each slot's
//     preference list, so a key's primary changes only when the new
//     node wins that slot — exactly the ~K/N handoff share, and a
//     replica set changes by at most one member;
//   - determinism: the ring is a pure function of (nodes, vnodes);
//   - balance: per-slot owners are i.i.d. across Q ≫ vnodes slots, so
//     the share deviation is ~√(N/Q) — well inside ±10%.
//
// The proxy publishes a *Ring through an atomic pointer; the hot
// routing path is one atomic load, one splitmix64 hash, one shift, and
// a copy out of the slot's precomputed preference list — no locks and
// no allocations (the replica slice is the caller's reusable buffer,
// the reclaim scan snapshots' reuse idiom). Topology changes build a fresh
// Ring and swap the pointer; requests in flight finish against the
// ring they started with.
package cluster

import (
	"sort"

	"repro/internal/rt"
)

// Ring is an immutable consistent-hash partition map. Node ids are
// indices into Nodes; Lookup returns ids, and the proxy maps them to
// backends.
type Ring struct {
	Nodes  []string // backend addresses in join order
	VNodes int      // virtual-node budget per backend (sizes the slot table)

	slotBits uint    // Q = 1 << slotBits equal slots on the circle
	pref     []int32 // Q × len(Nodes) preference lists, slot-major
}

// DefaultVNodes is the vnode budget a zero config gets.
const DefaultVNodes = 128

// slotsFor picks the slot-table size: enough slots that every node's
// share is averaged over ≥ vnodes independent slot decisions even in
// large clusters, capped to keep topology rebuilds trivially cheap.
func slotsFor(vnodes int) uint {
	bits := uint(6) // floor of 64 slots
	for 1<<bits < vnodes*64 && bits < 16 {
		bits++
	}
	return bits
}

// hashAddr seeds a node's weight stream from its address (FNV-1a).
func hashAddr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// BuildRing computes the slot table for a node set. Deterministic: two
// proxies building a ring from the same topology agree on every key.
func BuildRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		Nodes:    append([]string(nil), nodes...),
		VNodes:   vnodes,
		slotBits: slotsFor(vnodes),
	}
	n := len(nodes)
	if n == 0 {
		return r
	}
	q := 1 << r.slotBits
	seeds := make([]uint64, n)
	for i, addr := range nodes {
		seeds[i] = hashAddr(addr)
	}
	r.pref = make([]int32, q*n)
	type weighted struct {
		w  uint64
		id int32
	}
	row := make([]weighted, n)
	for s := 0; s < q; s++ {
		for i := 0; i < n; i++ {
			row[i] = weighted{rt.SplitMix64(seeds[i] ^ rt.SplitMix64(uint64(s)+1)), int32(i)}
		}
		sort.Slice(row, func(a, b int) bool {
			if row[a].w != row[b].w {
				return row[a].w > row[b].w
			}
			return row[a].id < row[b].id // total order even on weight ties
		})
		for i := 0; i < n; i++ {
			r.pref[s*n+i] = row[i].id
		}
	}
	return r
}

// Lookup appends the ids of the first `want` nodes in key's preference
// order — the key's primary followed by its replicas — and returns the
// extended slice. dst is the caller's reusable buffer; with cap(dst) ≥
// want the call performs zero allocations. want is clamped to the node
// count.
func (r *Ring) Lookup(key uint64, want int, dst []int32) []int32 {
	dst = dst[:0]
	n := len(r.Nodes)
	if n == 0 || want <= 0 {
		return dst
	}
	if want > n {
		want = n
	}
	s := int(rt.SplitMix64(key) >> (64 - r.slotBits))
	return append(dst, r.pref[s*n:s*n+want]...)
}

// Primary is Lookup's first choice, for callers that only route.
func (r *Ring) Primary(key uint64) int32 {
	var buf [1]int32
	ids := r.Lookup(key, 1, buf[:0])
	if len(ids) == 0 {
		return -1
	}
	return ids[0]
}

// NodeID returns the id of addr in this ring, or -1.
func (r *Ring) NodeID(addr string) int32 {
	for i, a := range r.Nodes {
		if a == addr {
			return int32(i)
		}
	}
	return -1
}
