// Package hashx provides the deterministic, seeded integer hashes used
// throughout this repository: one mixing finaliser (Mix64), its seed
// premixer, the level sampler of RHHH and Memento (Sampler, Level), the
// double-hashing pair behind Bloom-filter cells (Probes2) and the bias-free
// range reduction behind shard partitioning (Bucket).
//
// Everything hashed here is a small fixed-width integer key (a packed
// prefix), so instead of a general byte-stream hash we use integer mixing
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

// Premix mixes a seed before it is xor-folded into a key, so that related
// seeds (0,1,2,...) still produce unrelated functions: Mix64(x ^ Premix(seed))
// hashes x under seed, and a caller that hashes many keys under one seed
// pays for the premix once.
func Premix(seed uint64) uint64 { return Mix64(seed ^ 0x9e3779b97f4a7c15) }

// Sampler returns the level-sampling state a seed starts from.
func Sampler(seed uint64) uint64 { return Mix64(seed ^ 0x5851f42d4c957f2d) }

// Level is one splitmix64 step of a level sampler: it returns the next
// state and the level in [0, levels) drawn from it by a high-multiply range
// reduction. The state is part of the wire contract: an engine restored with
// it draws the levels the original would have.
func Level(state, levels uint64) (uint64, int) {
	state += 0x9e3779b97f4a7c15
	return state, int((Mix64(state) >> 32) * levels >> 32)
}

// Probes2 computes two independent hashes of x under a seed already put
// through Premix, for double hashing: Bloom-filter cell j can then be
// derived as h1 + j*h2 (mod m), the Kirsch–Mitzenmacher construction, which
// preserves asymptotic false-positive behaviour while paying for only two
// hash evaluations.
func Probes2(x, premixed uint64) (h1, h2 uint64) {
	h := Mix64(x ^ premixed)
	return h >> 32, h&0xffffffff | 1 // odd, so the stride cycles the whole table
}

// Bucket reduces h into [0,m) without modulo bias for m << 2^32.
func Bucket(h uint64, m int) int {
	return int((h & 0xffffffff) * uint64(m) >> 32)
}
