package main

import "math"

// Everything the programs under test receive is drawn from here, and
// every draw is a pure function of (seed, workload, stream): the same
// seed gives the same op streams.

type opKind uint8

const (
	opRead   opKind = iota // Contains / Get
	opInsert               // Insert / Put
	opRemove               // Remove / Del
	opScan                 // Scan, scanLen keys
)

type op struct {
	kind opKind
	key  uint64
}

// splitmix64 is the per-stream PRNG.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func mix64(a, b uint64) uint64 {
	r := splitmix64{s: a ^ (b * 0xd6e8feb86659fd93)}
	return r.next()
}

// zipf holds the constants of the YCSB zipfian generator (exponent
// below 1, which math/rand's Zipf does not support). They depend only
// on (n, theta), so one table serves every stream of a workload.
type zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	zetan := zeta(n)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
	}
}

// key maps a uniform u in [0,1) to a key in [1, n]; ranks are
// scrambled so hot keys spread over the keyspace and the store shards.
func (z *zipf) key(u float64) uint64 {
	var rank uint64
	uz := u * z.zetan
	switch {
	case uz < 1:
		rank = 1
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 2
	default:
		rank = 1 + uint64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	return 1 + (rank*0x9e3779b97f4a7c15)%z.n
}

// gen is one op stream of a workload.
type gen struct {
	rng       splitmix64
	keys      uint64
	z         *zipf
	insertEnd uint64 // cumulative mix thresholds out of 100
	removeEnd uint64
	scanEnd   uint64
}

// newGen opens stream number stream of w under seed. Streams with the
// same (seed, stream) are identical, whichever subject consumes them.
// Not safe for concurrent use: it caches the zipfian constants in w.
func (w *workload) newGen(seed, stream uint64) *gen {
	g := &gen{
		rng:       splitmix64{s: mix64(seed, stream)},
		keys:      w.keys,
		insertEnd: uint64(w.insert),
		removeEnd: uint64(w.insert + w.remove),
		scanEnd:   uint64(w.insert + w.remove + w.scan),
	}
	if w.theta > 0 {
		if w.z == nil {
			w.z = newZipf(w.keys, w.theta)
		}
		g.z = w.z
	}
	return g
}

func (g *gen) nextKey() uint64 {
	x := g.rng.next()
	if g.z != nil {
		return g.z.key(float64(x>>11) / (1 << 53))
	}
	return 1 + x%g.keys
}

func (g *gen) next() op {
	k := g.nextKey()
	p := g.rng.next() % 100
	switch {
	case p < g.insertEnd:
		return op{opInsert, k}
	case p < g.removeEnd:
		return op{opRemove, k}
	case p < g.scanEnd:
		return op{opScan, k}
	default:
		return op{opRead, k}
	}
}

// streamHash folds the first n ops of a stream into an FNV-1a digest;
// the test uses it to witness determinism per seed.
func (w *workload) streamHash(seed, stream uint64, n int) uint64 {
	g := w.newGen(seed, stream)
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < n; i++ {
		o := g.next()
		for _, v := range [2]uint64{uint64(o.kind), o.key} {
			for b := 0; b < 8; b++ {
				h ^= (v >> (8 * b)) & 0xff
				h *= 0x100000001b3
			}
		}
	}
	return h
}

// kvValue is what every Put writes: the key in the high bits, so any
// value read back names the key it belongs to.
func kvValue(key, n uint64) uint64 { return key<<20 | n&0xfffff }

func kvValueOK(key, val uint64) bool { return val>>20 == key }
