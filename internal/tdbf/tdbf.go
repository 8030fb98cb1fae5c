// Package tdbf implements time-decaying Bloom filters, the streaming
// primitive the paper proposes (Section 3) as the escape from disjoint
// windows. The structure follows Bianchi, d'Heureuse and Niccolini,
// "On-demand Time-decaying Bloom Filters for Telemarketer Detection" (ACM
// CCR 41(5), 2011) — the paper's reference [2] — with their per-cell
// timestamps replaced by forward decay.
//
// A filter is an array of m cells. Adding weight w for a key adds to k
// cells chosen by double hashing; the estimate for a key is the minimum
// over its k cells, which — exactly as in a counting Bloom filter or
// Count-Min sketch — never underestimates the key's true decayed mass and
// overestimates only through collisions.
//
// What a cell stores. Under the exponential law, mass·e^(−dt/τ), decay
// commutes with addition, so a cell needs no timestamp: it holds its mass
// scaled to a landmark instant L kept by its Base, cell = Σ w·e^((t−L)/τ)
// over the adds (w at t) that hit it. An add is a plain += of
// w·e^((now−L)/τ), a read is the cell times e^(−(now−L)/τ), and every cell
// on one Base shares that factor pair: the Base remembers it for the last
// instant asked about, so a detector whose per-level filters and mass
// tracker share a Base pays one exp per packet for all of them. Adds within
// a landmark epoch commute, up to floating-point association.
//
// Roll-over. Scaled masses grow as e^((now−L)/τ), so the first add that
// finds the landmark more than rollAfter (64) time constants old rolls it
// over: every cell × e^(−(now−L)/τ), L ← now. A cell thus stays below
// 2⁶³·e⁶⁴ for any mass a byte counter can reach, and the instant of a
// roll-over depends on the timestamps added and nothing else — not on
// batch boundaries, the wall clock or a knob. A Base that stores nothing
// has no landmark and takes the first add's instant, which keeps state
// invariant under time translation.
//
// The flush floor. A roll-over sets a cell whose mass has fallen under
// flushFloor (2⁻³² B) to exactly zero, so the occupied cells follow the
// keys still alive, not every key ever seen, and a sparse encoding stays
// small. This is the one place the never-underestimate bound gives: a
// flush takes less than 2⁻³² B and roll-overs are at least 64 τ apart, so
// an estimate falls below the true decayed mass by less than 2⁻³¹ B per
// filter merged into it.
//
// What a filter holds. Cells are stored a line of eight (64 B) at a time:
// a directory entry per line names the line of a pool that holds its
// cells, or none while it holds no mass. A write that takes a cell of an
// unheld line from zero appends a line to the pool; a roll-over gives back
// the lines it flushes empty. Pool line 0 stays zero, so a read goes
// through the directory without a branch. A filter costs its directory (4
// B a line) and the lines it holds — under a flood that holds them all,
// 1/16 more than the cells alone — and counts its non-zero cells. Reset,
// Merge, Restore, the rescales and the sparse encoding walk held lines.
//
// The law is exponential only: the leaky-bucket law's clamp at zero does
// not commute with addition. The lazy per-cell filter that supported both
// survives as the tests' reference (lazy_test.go), beside the classical
// eager-refresh baseline (periodic_test.go).
//
// Filters built from one config (same shape, seed and τ) are mergeable:
// one side is rescaled to the later of the two landmarks — one factor per
// merge — and the cells added, giving the cells a single filter over the
// union stream would hold (up to floating-point association). The sharded
// continuous detector merges per-shard filters this way at query time.
package tdbf

import (
	"math"
	"math/bits"
	"time"

	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/sketch"
)

// Exponential is the decay law: mass decays by exp(-dt/Tau), an
// exponentially weighted moving volume with time constant Tau. In steady
// state a flow sending r bytes/s holds mass r*Tau, making estimates
// directly comparable to byte volumes in windows of length Tau.
type Exponential struct {
	Tau time.Duration
}

const (
	// rollAfter is how many time constants old a landmark may grow before
	// the next add rolls it over: ≤ 512, for 2⁶³·e^rollAfter to be a
	// float64, and small enough to keep occupancy fresh.
	rollAfter = 64
	// flushFloor is the mass, in bytes at the roll-over instant, under which
	// a roll-over zeroes a cell.
	flushFloor = 1.0 / (1 << 32)
	// maxTime bounds the instants a landmark can stand at (stamps beyond it
	// are clamped), so the difference of two of them is always an int64.
	maxTime = int64(1)<<62 - 1
	// NoLandmark is the landmark of a Base that stores no mass; the first
	// add, or merge or restore of something that has one, sets it.
	NoLandmark = math.MinInt64
)

// Base is the time base of forward decay: the decay constant, the landmark
// the masses of every filter and tracker built on it are scaled to, and
// the factor pair of the last instant it resolved. Its members decay
// together; it is not safe for concurrent use.
type Base struct {
	law  Exponential
	tau  float64 // law.Tau in ns
	land int64
	// The memo: up = e^((now−land)/τ) and down = 1/up, valid while memo.
	now      int64
	up, down float64
	memo     bool
	// The members, rescaled together at a roll-over.
	filters  []*Filter
	trackers []*MassTracker
	// ahead is Ahead's result: the up factors of a run of write instants.
	ahead [128]float64
}

// NewBase builds a time base under the given law. It panics unless Tau is
// positive: a time-decaying structure without a decay law is a programming
// error, not a runtime condition.
func NewBase(d Exponential) *Base {
	if d.Tau <= 0 {
		panic("tdbf: a positive Exponential.Tau is required")
	}
	return &Base{law: d, tau: float64(d.Tau), land: NoLandmark}
}

// Reset drops the landmark. The caller has Reset every member: a Base
// without a landmark stores no mass.
func (b *Base) Reset() { b.land, b.memo = NoLandmark, false }

// age is how many time constants the landmark lies before the instant at.
func (b *Base) age(at int64) float64 {
	if b.land == NoLandmark {
		return math.Inf(1)
	}
	return float64(at-b.land) / b.tau
}

// scale returns the factor pair of the instant now: up = e^((now−L)/τ),
// which takes a mass at now to the landmark's scale, and down = 1/up,
// which brings a stored mass back. The pair of the last instant resolved
// is remembered, so of the members written or read at one instant only
// the first pays for it.
func (b *Base) scale(now int64, write bool) (up, down float64) {
	if b.memo && now == b.now {
		return b.up, b.down
	}
	return b.resolve(now, write)
}

// resolve is scale past the memo. A read never moves the landmark, and
// past rollAfter only its down is meaningful.
func (b *Base) resolve(now int64, write bool) (up, down float64) {
	x, ok := b.exponent(now, write)
	if !ok {
		return math.Inf(1), math.Exp(-x)
	}
	up = math.Exp(x)
	return up, b.Enter(now, up)
}

// exponent returns x, the time constants from the landmark to the instant
// now, for up = e^x. A landmark more than rollAfter of them old (or missing)
// is rolled over first if roll allows; if not, ok is false and x its age. An
// instant more than rollAfter before the landmark counts as exactly that
// far before it, so the factors stay finite whatever the stamp.
func (b *Base) exponent(now int64, roll bool) (x float64, ok bool) {
	at := min(max(now, -maxTime), maxTime)
	if x = b.age(at); x > rollAfter {
		if !roll {
			return x, false
		}
		b.rebase(at, true)
		return 0, true
	}
	return max(x, -rollAfter), true
}

// Ahead resolves the up factors of the run of write instants ts opens with
// before the writes that use them, so that no write waits for its exp. The
// first instant rolls an old or missing landmark over, as any write does,
// and the run ends before the next that would (or at len(b.ahead)): where
// it is cut, like the landmark, depends on the stamps alone. Each factor is
// bit for bit resolve's; Enter makes one of the instants current. The
// result is valid until the next call.
func (b *Base) Ahead(ts []int64) []float64 {
	ups := b.ahead[:0]
	for _, now := range ts[:min(len(ts), len(b.ahead))] {
		x, ok := b.exponent(now, len(ups) == 0)
		if !ok {
			break
		}
		ups = append(ups, math.Exp(x))
	}
	return ups
}

// Rolls reports whether a write at now would roll the landmark over or set
// one: a caller holding masses at its scale outside the members folds them.
func (b *Base) Rolls(now int64) bool { _, ok := b.exponent(now, false); return !ok }

// Enter makes now, whose up factor Ahead or resolve took, the instant the
// base has resolved — members written or read at it find the pair without
// an exp — and returns down = 1/up.
func (b *Base) Enter(now int64, up float64) (down float64) {
	b.now, b.up, b.down, b.memo = now, up, 1/up, true
	return b.down
}

// rebase moves the landmark to the later instant to, rescaling the
// members' held lines; flush additionally zeroes the cells left under
// flushFloor (a roll-over does, a merge does not).
func (b *Base) rebase(to int64, flush bool) {
	if b.land != NoLandmark {
		k := math.Exp(-b.age(to))
		floor := 0.0
		if flush {
			floor = flushFloor
		}
		for _, f := range b.filters {
			f.rescale(k, floor)
		}
		for _, t := range b.trackers {
			if t.v[0] *= k; t.v[0] < floor {
				t.v[0] = 0
			}
		}
	}
	b.land, b.memo = to, false
}

// align prepares the base to take in masses scaled to the landmark from
// and returns the factor that brings them to its own: when from is the
// later of the two the base is rebased to it, so one side of a merge is
// rescaled and never both.
func (b *Base) align(from int64) float64 {
	switch {
	case from == NoLandmark || from == b.land:
		return 1
	case from > b.land:
		b.rebase(from, false)
		return 1
	}
	return math.Exp(-float64(b.land-from) / b.tau)
}

// validMass reports whether v can be a stored mass: finite and not
// negative (negative zero included, which would not re-encode as zero).
func validMass(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1) && !math.Signbit(v)
}

// SatInt64 converts a decayed mass, or a difference of two, to an int64
// count, saturating at the ends of the int64 range (NaN gives 0): Go
// leaves an out-of-range conversion to the implementation, and a restored
// mass may be any finite value.
func SatInt64(m float64) int64 {
	switch {
	case m >= math.MaxInt64: // 2^63, as MaxInt64 rounds
		return math.MaxInt64
	case m <= math.MinInt64:
		return math.MinInt64
	case math.IsNaN(m):
		return 0
	}
	return int64(m)
}

// LineCells is the cells of a line (64 B), the unit a filter holds.
const LineCells = 8

// line is LineCells cells, masses scaled to the landmark.
type line = [LineCells]float64

// add adds w > 0 to cell i, taking its line if it holds none, and returns
// the cell.
func (f *Filter) add(i uint64, w float64) float64 {
	d := f.dir[i/LineCells]
	if d == 0 {
		d = f.take(i / LineCells)
	}
	c := &f.pool[d][i%LineCells]
	v := *c
	x := v + w
	*c = x
	if v == 0 {
		f.occ++
	}
	return x
}

// take gives line j the next line of the pool and returns it. It is kept
// out of line: the writes call it once per line, not per cell. A full pool
// grows by a quarter, never past a line per directory entry, and the held
// lines move into it in directory order — the order the walks read them
// in, which lines appended as traffic first touched them do not keep.
//
//go:noinline
func (f *Filter) take(j uint64) uint32 {
	if n := len(f.pool); n == cap(f.pool) {
		pool := make([]line, 1, min(n+n/4+LineCells, len(f.dir)+1))
		for w := 0; w*64 < len(f.dir); w++ {
			for m := f.Lines(w); m != 0; m &= m - 1 {
				k := w*64 + bits.TrailingZeros64(m)
				pool = append(pool, *f.Line(k))
				f.dir[k] = uint32(len(pool) - 1)
			}
		}
		f.pool = pool
	}
	f.dir[j] = uint32(len(f.pool))
	f.pool = append(f.pool, line{})
	return f.dir[j]
}

// cell returns cell i, zero if its line is not held.
func (f *Filter) cell(i uint64) float64 { return f.pool[f.dir[i/LineCells]][i%LineCells] }

// Lines returns which of lines 64w … 64w+63 are held, bit k for line
// 64w+k, read off the directory: every non-zero cell is in a held line and
// every held line has one. Line j is cells [LineCells·j, LineCells·(j+1));
// a walk over the held lines takes w from 0 while 64w·LineCells < Cells,
// and each set bit in turn.
func (f *Filter) Lines(w int) uint64 {
	m := uint64(0)
	for k, d := range f.dir[w*64 : min(w*64+64, len(f.dir))] {
		m |= uint64(-int64(d)) >> 63 << (k & 63) // no branch: half the lines may be held
	}
	return m
}

// Line returns the cells of line j, masses scaled to Landmark: live
// storage, to treat as read-only, and the zero line if j is not held.
func (f *Filter) Line(j int) *[LineCells]float64 { return &f.pool[f.dir[j]] }

// rescale multiplies the held lines by k, zeroes the cells it leaves under
// floor and gives back the lines it empties, branching on no cell's value.
func (f *Filter) rescale(k, floor float64) {
	freed := 0
	for w := 0; w*64 < len(f.dir); w++ {
		for m := f.Lines(w); m != 0; m &= m - 1 {
			j := w*64 + bits.TrailingZeros64(m)
			line, zeroed, live := f.Line(j), 0, uint64(0)
			for i, v := range line {
				x := v * k
				if x < floor {
					x = 0
				}
				line[i] = x
				zeroed += became(math.Float64bits(x), math.Float64bits(v))
				live |= math.Float64bits(x)
			}
			f.occ -= zeroed
			if live == 0 {
				f.dir[j] = 0
				freed++
			}
		}
	}
	if freed > 0 {
		f.compact(len(f.pool) - freed)
	}
}

// compact shortens the pool to end lines after a rescale gave some back:
// those below end, left zero, take the held lines at or past it.
func (f *Filter) compact(end int) {
	hole := 1
	for j, d := range f.dir {
		if d < uint32(end) {
			continue
		}
		for f.pool[hole] != (line{}) {
			hole++
		}
		f.pool[hole], f.dir[j] = f.pool[d], uint32(hole)
		hole++
	}
	f.pool = f.pool[:end]
}

// became is 1 if the mass of bits a is zero and that of bits b is not, else
// 0: masses are never negative, so bits-1 sets the sign bit only for zero.
func became(a, b uint64) int { return int((a - 1) &^ (b - 1) >> 63) }

// Filter is a forward-decayed time-decaying Bloom filter. It is not safe
// for concurrent use.
type Filter struct {
	dir   []uint32 // per line of cells: its line of pool, 0 if it holds no mass
	pool  []line   // the held lines after pool[0], which stays zero
	occ   int      // the non-zero cells
	cells int
	base  *Base
	k     int
	seed  uint64
	pre   uint64 // hashx.Premix(seed)
	// mask is cells-1 when that is a power of two (indices are then taken
	// with & instead of %), zero otherwise.
	mask uint64
	// direct marks a direct-addressed filter (see NewLevel): a key's one
	// cell is the cells = 2^r values of its bits from shift up.
	direct bool
	shift  uint8

	adds uint64 // Adds reports it saturated
}

// slot is key's cell in a direct-addressed filter (a one-key level masks all).
func (f *Filter) slot(key uint64) uint64 { return key >> (f.shift & 63) & f.mask }

// index reduces a double-hashing probe to a cell index.
func (f *Filter) index(h uint64) uint64 {
	if f.mask != 0 {
		return h & f.mask
	}
	return h % uint64(f.cells)
}

// Config configures a Filter.
type Config struct {
	// Cells is the array size m of a hashed filter; a hierarchy level of no
	// more than m keys is held exactly, in 2^r cells (NewLevel). Default 1 << 16.
	Cells int
	// Hashes is k, the cells touched per key. Default 4.
	Hashes int
	// Seed drives the hash family; fixed default keeps runs reproducible.
	Seed uint64
	// Decay law; a positive Tau is required.
	Decay Exponential
}

// WithDefaults returns c with its unset fields resolved.
func (c Config) WithDefaults() Config {
	if c.Cells <= 0 {
		c.Cells = 1 << 16
	}
	if c.Hashes <= 0 {
		c.Hashes = 4
	}
	return c
}

// New builds a Filter on a Base of its own. It panics if no decay law is
// supplied (see NewBase).
func New(cfg Config) *Filter { return NewBase(cfg.Decay).NewFilter(cfg) }

// NewFilter builds a Filter on b: it decays under b's law and shares b's
// landmark — and the one exp per instant — with b's other members.
// cfg.Decay is not consulted.
func (b *Base) NewFilter(cfg Config) *Filter {
	cfg = cfg.WithDefaults()
	lines := (cfg.Cells + LineCells - 1) / LineCells // the last padded whole
	f := &Filter{dir: make([]uint32, lines), pool: make([]line, 1), cells: cfg.Cells,
		base: b, k: cfg.Hashes, seed: cfg.Seed, pre: hashx.Premix(cfg.Seed)}
	if cfg.Cells&(cfg.Cells-1) == 0 {
		f.mask = uint64(cfg.Cells - 1)
	}
	b.filters = append(b.filters, f)
	return f
}

// NewLevel builds on b the filter of one level of a prefix hierarchy, whose
// keys differ in the bits bits from bit shift up and nowhere else. When
// those 2^bits keys are no more than cfg.Cells the filter is
// direct-addressed, one cell per key, found by those bits: the k = 1
// perfect-hash case of the same filter — an estimate is the key's exact
// decayed mass — under the same Merge, Restore and roll-over rules.
// Otherwise it is NewFilter's. The seed still says which filters merge.
func (b *Base) NewLevel(cfg Config, shift, bits uint) *Filter {
	if cfg = cfg.WithDefaults(); bits > 62 || 1<<bits > cfg.Cells {
		return b.NewFilter(cfg)
	}
	f := b.NewFilter(Config{Cells: 1 << bits, Hashes: 1, Seed: cfg.Seed})
	f.direct, f.shift = true, uint8(shift)
	return f
}

// Direct reports whether the filter is direct-addressed (see NewLevel).
func (f *Filter) Direct() bool { return f.direct }

// Decay returns the filter's decay law.
func (f *Filter) Decay() Exponential { return f.base.law }

// Cells returns the array size m.
func (f *Filter) Cells() int { return f.cells }

// Hashes returns k.
func (f *Filter) Hashes() int { return f.k }

// SizeBytes returns the state footprint: the directory, 4 B per line, and
// the pool's capacity, 64 B per line — what the filter holds, not its
// cells. It costs nothing to ask.
func (f *Filter) SizeBytes() int { return cap(f.dir)*4 + cap(f.pool)*LineCells*8 }

// Adds returns the writes since construction or Reset, merged ones
// included, at most MaxInt64.
func (f *Filter) Adds() int64 { return int64(min(f.adds, math.MaxInt64)) }

// Add records weight w for key at time now (ns) and returns the key's
// estimate after the add — the minimum of the k cells just written, bit
// for bit what Estimate(key, now) would return next. Timestamps should be
// non-decreasing across calls, as in the time-sorted traces the
// experiments replay; one that runs backwards is still folded in at its
// own instant (see Base.exponent for how far back).
func (f *Filter) Add(key uint64, w float64, now int64) float64 {
	up, down := f.base.scale(now, true)
	return f.AddScaled(key, w*up) * down
}

// AddScaled is Add for a caller that holds the factor pair of its instant
// (Base.Ahead, Base.Enter): w ≥ 0 is the weight times up, and the estimate
// returned is at the landmark's scale, to be brought back by down.
func (f *Filter) AddScaled(key uint64, w float64) float64 {
	f.adds++
	if w == 0 { // changes no cell, and takes no line
		return f.read(key)
	}
	h1, h2 := key>>(f.shift&63), uint64(0) // a direct filter's one cell
	if !f.direct {
		h1, h2 = hashx.Probes2(key, f.pre)
		if f.mask == 0 || f.k > f.cells {
			// Two probes may land on one cell, whose value is final only
			// after the last: write, then walk again.
			for i := 0; i < f.k; i++ {
				f.add(f.index(h1+uint64(i)*h2), w)
			}
			return f.min(h1, h2)
		}
	}
	// The stride is odd and the cell count a power of two: the k probes are
	// k different cells, each final as soon as it is written. The loop is
	// add spelled out: a call per probe showed in the ingest kernel.
	min := math.Inf(1)
	for n := 0; n < f.k; n++ {
		i := (h1 + uint64(n)*h2) & f.mask
		d := f.dir[i/LineCells]
		if d == 0 {
			d = f.take(i / LineCells)
		}
		c := &f.pool[d][i%LineCells]
		v := *c
		x := v + w
		*c = x
		if v == 0 {
			f.occ++
		}
		if x < min {
			min = x
		}
	}
	return min
}

// read returns key's estimate at the landmark's scale.
func (f *Filter) read(key uint64) float64 {
	if f.direct {
		return f.cell(f.slot(key))
	}
	return f.min(hashx.Probes2(key, f.pre))
}

// min returns the smallest of the key's k cells, at the landmark's scale.
func (f *Filter) min(h1, h2 uint64) float64 {
	min := math.Inf(1)
	for i := 0; i < f.k; i++ {
		if v := f.cell(f.index(h1 + uint64(i)*h2)); v < min {
			min = v
		}
	}
	return min
}

// Estimate returns the filter's estimate of key's decayed mass at time
// now: the minimum over its k cells, brought from the landmark to now. It
// reads only, and never falls below the key's true decayed mass by more
// than the flush floor allows (see the package comment).
func (f *Filter) Estimate(key uint64, now int64) float64 {
	_, down := f.base.scale(now, false)
	return f.read(key) * down
}

// Merge folds the cells of o's held lines into f; o is not modified.
// Both filters must share shape (cells, hashes), seed and decay law, so
// that a key maps to the same cells in both — the sharded pipeline builds
// every shard's filters from one config for exactly this reason.
//
// The earlier-scaled side is brought to the later landmark — f's whole
// Base when that is o's — and the cells are added. Decay commutes with
// addition, so the sum is the cell a single filter over the union stream
// would hold, and the sum of two per-cell upper bounds is an upper bound
// for the union stream: the merged filter stays conservative,
// overestimating only through collisions as a single filter would. A sum
// past the largest float64 stays there, and the add count saturates.
func (f *Filter) Merge(o *Filter) {
	if o == nil {
		return
	}
	if f.cells != o.cells || f.k != o.k || f.seed != o.seed || f.base.law != o.base.law ||
		f.direct != o.direct || f.shift != o.shift {
		panic("tdbf: Filter.Merge shape/seed/decay mismatch")
	}
	k := f.base.align(o.base.land)
	for w := 0; w*64 < len(o.dir); w++ {
		for m := o.Lines(w); m != 0; m &= m - 1 {
			j := w*64 + bits.TrailingZeros64(m)
			d, taken := f.dir[j], f.dir[j] == 0
			if taken && len(f.pool) < cap(f.pool) { // take without the call a fold makes per line
				d, f.dir[j] = uint32(len(f.pool)), uint32(len(f.pool))
				f.pool = append(f.pool, line{})
			} else if taken {
				d = f.take(uint64(j))
			}
			src, dst, n := o.Line(j), &f.pool[d], 0
			for i, v := range src {
				x := dst[i] + v*k
				if x > math.MaxFloat64 {
					x = math.MaxFloat64
				}
				n += became(math.Float64bits(dst[i]), math.Float64bits(x))
				dst[i] = x
			}
			if taken && n == 0 { // the source's masses rescaled to nothing
				f.pool, f.dir[j] = f.pool[:d], 0
			}
			f.occ += n
		}
	}
	f.adds = uint64(sketch.AddSat(f.Adds(), o.Adds()))
}

// Reset clears all cells, keeping the pool's capacity. The landmark
// belongs to the Base, which the filter may share: Base.Reset drops it.
func (f *Filter) Reset() {
	clear(f.dir)
	f.pool = f.pool[:1]
	f.occ, f.adds = 0, 0
}

// MassTracker is a single forward-decayed accumulator, a one-cell member
// of its Base. The continuous detector uses one to track total decayed
// traffic mass, the denominator of its relative thresholds.
type MassTracker struct {
	base *Base
	v    [1]float64 // mass scaled to base's landmark
}

// NewMassTracker builds a tracker on b, sharing b's landmark with b's
// other members.
func (b *Base) NewMassTracker() *MassTracker {
	t := &MassTracker{base: b}
	b.trackers = append(b.trackers, t)
	return t
}

// AddScaled folds weight w, at the landmark's scale (see
// Filter.AddScaled), into the tracker and returns the mass after the add
// at that scale.
func (t *MassTracker) AddScaled(w float64) float64 {
	t.v[0] += w
	return t.v[0]
}

// Value returns the decayed mass at now.
func (t *MassTracker) Value(now int64) float64 {
	_, down := t.base.scale(now, false)
	return t.v[0] * down
}

// Merge folds tracker o into t, the single-cell case of Filter.Merge (a
// sum past the largest float64 stays there). The decay laws must match.
func (t *MassTracker) Merge(o *MassTracker) {
	if o == nil {
		return
	}
	if t.base.law != o.base.law {
		panic("tdbf: MassTracker.Merge decay mismatch")
	}
	t.v[0] = min(t.v[0]+o.v[0]*t.base.align(o.base.land), math.MaxFloat64)
}

// Reset clears the tracker (see Filter.Reset for the landmark).
func (t *MassTracker) Reset() { t.v[0] = 0 }
