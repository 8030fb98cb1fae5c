// Package hashx provides the deterministic, seeded hash families used
// throughout this repository (Bloom-filter cells, open-addressed tables,
// shard partitioning, level sampling).
//
// The sketches all hash small fixed-width integer keys (packed IPv4
// prefixes), so instead of a general byte-stream hash we use integer mixing
// finalisers in the murmur3/splitmix64 tradition: a handful of
// multiply-xor-shift rounds that are avalanche-complete, allocation-free and
// — unlike hash/maphash — stable across processes, which keeps experiments
// bit-reproducible under fixed seeds.
package hashx

// Mix64 applies the splitmix64 finaliser to x. It is a bijection on uint64
// with full avalanche, making it a sound basis for seeded hash families:
// Mix64(x ^ seed) for independently drawn seeds behaves as an independent
// hash per seed.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix32 folds Mix64 down to 32 bits.
func Mix32(x uint64) uint32 {
	return uint32(Mix64(x) >> 32)
}

// Seeded hashes x under the given seed. Distinct seeds yield hash functions
// that are independent for all practical sketch purposes.
func Seeded(x, seed uint64) uint64 {
	// xor-fold the seed in before and after mixing so that related seeds
	// (0,1,2,...) still produce unrelated functions.
	return Mix64(x ^ Mix64(seed^0x9e3779b97f4a7c15))
}

// Family is a fixed-size family of seeded hash functions, the shape every
// multi-row sketch needs. The zero value is unusable; construct with
// NewFamily.
type Family struct {
	seeds []uint64
}

// NewFamily derives n independent hash functions from a master seed.
func NewFamily(n int, master uint64) *Family {
	if n <= 0 {
		panic("hashx: family size must be positive")
	}
	f := &Family{seeds: make([]uint64, n)}
	s := master
	for i := range f.seeds {
		// SplitMix64 sequence: decorrelated seeds from one master.
		s += 0x9e3779b97f4a7c15
		f.seeds[i] = Mix64(s)
	}
	return f
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash evaluates function i of the family on x.
func (f *Family) Hash(i int, x uint64) uint64 {
	return Mix64(x ^ f.seeds[i])
}

// Index evaluates function i on x and reduces it to a bucket in [0,m) using
// the high-multiply trick, which avoids the modulo bias and the divide.
func (f *Family) Index(i int, x uint64, m int) int {
	h := f.Hash(i, x)
	return int((h >> 32) * uint64(m) >> 32)
}

// Sign evaluates function i on x and returns +1 or -1 with equal
// probability, as required by Count-Sketch estimators.
func (f *Family) Sign(i int, x uint64) int64 {
	if f.Hash(i, x)&1 == 0 {
		return 1
	}
	return -1
}

// Indices2 computes two independent hashes of x for double hashing:
// Bloom-filter cell j can then be derived as h1 + j*h2 (mod m), the
// Kirsch–Mitzenmacher construction, which preserves asymptotic
// false-positive behaviour while paying for only two hash evaluations.
func Indices2(x, seed uint64) (h1, h2 uint64) {
	h := Seeded(x, seed)
	h1 = h >> 32
	h2 = h&0xffffffff | 1 // force odd so it cycles the whole table
	return h1, h2
}

// Bucket reduces h into [0,m) without modulo bias for m << 2^32.
func Bucket(h uint64, m int) int {
	return int((h & 0xffffffff) * uint64(m) >> 32)
}
