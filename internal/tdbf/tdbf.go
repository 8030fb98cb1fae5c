// Package tdbf implements time-decaying Bloom filters, the streaming
// primitive the paper proposes (Section 3) as the escape from disjoint
// windows. The design follows Bianchi, d'Heureuse and Niccolini,
// "On-demand Time-decaying Bloom Filters for Telemarketer Detection" (ACM
// CCR 41(5), 2011) — the paper's reference [2].
//
// A filter is an array of m cells, each holding a real-valued mass and the
// timestamp of its last touch. Adding weight w for a key touches k cells
// chosen by double hashing: each cell is first decayed *on demand* to the
// current instant (the paper's key idea — no background refresh sweep is
// needed because decay laws compose over time), then incremented by w. The
// estimate for a key is the minimum over its k cells, which — exactly as
// in a counting Bloom filter or Count-Min sketch — never underestimates
// the key's true decayed mass and overestimates only through collisions.
//
// Two composable decay laws are provided: exponential (EWMA-style, the
// natural continuous analogue of a time window of length tau) and leaky
// linear (constant drain rate). The classical baseline the on-demand design
// improves on — a filter refreshed by eager whole-array ticks — is kept as
// a reference the tests compare against (PeriodicFilter, periodic_test.go).
//
// Filters built from one config (same shape, seed and decay law) are
// mergeable: because decay laws compose over time, two cells summarising
// substreams can be decayed to a common timestamp and added, giving
// exactly the cell a single filter over the union stream would hold (up
// to floating-point association). Filter.Merge and MassTracker.Merge
// implement this; the sharded continuous detector merges per-shard
// filters at query time.
package tdbf

import (
	"fmt"
	"math"
	"time"

	"hiddenhhh/internal/hashx"
)

// Decay is a composable time-decay law: Apply(Apply(v, a), b) must equal
// Apply(v, a+b) so that lazily applied decay is exact regardless of how
// accesses are spaced.
type Decay interface {
	// Apply returns the mass remaining of v after dt has elapsed.
	// dt is always >= 0.
	Apply(v float64, dt time.Duration) float64
	// Horizon is the law's characteristic averaging span: the window
	// length a decayed mass is comparable to (tau for exponential decay).
	Horizon() time.Duration
	// String describes the law for reports.
	String() string
}

// Exponential decays mass by exp(-dt/Tau): an exponentially weighted
// moving volume with time constant Tau. In steady state a flow sending r
// bytes/s holds mass r*Tau, making estimates directly comparable to byte
// volumes in windows of length Tau.
type Exponential struct {
	Tau time.Duration
}

// Apply implements Decay.
func (e Exponential) Apply(v float64, dt time.Duration) float64 {
	if dt <= 0 || v == 0 {
		return v
	}
	return v * math.Exp(-float64(dt)/float64(e.Tau))
}

// Horizon implements Decay.
func (e Exponential) Horizon() time.Duration { return e.Tau }

// String renders the decay law with its horizon.
func (e Exponential) String() string { return fmt.Sprintf("exp(tau=%v)", e.Tau) }

// LeakyLinear drains mass at a constant Rate (units per second), clamping
// at zero — the leaky-bucket law. Composition holds because subtraction is
// additive over time and the zero clamp is absorbing.
type LeakyLinear struct {
	Rate float64 // mass drained per second
}

// Apply implements Decay.
func (l LeakyLinear) Apply(v float64, dt time.Duration) float64 {
	if dt <= 0 || v == 0 {
		return v
	}
	v -= l.Rate * dt.Seconds()
	if v < 0 {
		return 0
	}
	return v
}

// Horizon implements Decay. A leaky law has no intrinsic span; callers
// configure thresholds in absolute mass, so Horizon reports zero.
func (l LeakyLinear) Horizon() time.Duration { return 0 }

// String renders the decay law with its rate.
func (l LeakyLinear) String() string { return fmt.Sprintf("leaky(rate=%g/s)", l.Rate) }

type cell struct {
	v     float64
	touch int64 // ns timestamp of last decay application
}

// Filter is an on-demand time-decaying Bloom filter. It is not safe for
// concurrent use.
type Filter struct {
	cells []cell
	k     int
	seed  uint64
	decay Decay
	shape shape

	adds int64
}

// shape is what New and RestoreFilter derive once from the cell count and
// the decay law so that Add, Estimate and Merge do not derive it per call.
type shape struct {
	// mask is len(cells)-1 when that length is a power of two (indices
	// are then taken with & instead of %), zero otherwise.
	mask uint64
	// tau is the time constant in ns when the law is Exponential, so Add
	// can compute one exp factor per distinct dt; zero for other laws.
	tau float64
	// law is decay.String(), the identity Merge compares.
	law string
}

func shapeOf(cells int, d Decay) shape {
	s := shape{law: d.String()}
	if cells&(cells-1) == 0 {
		s.mask = uint64(cells - 1)
	}
	if e, ok := d.(Exponential); ok {
		s.tau = float64(e.Tau)
	}
	return s
}

// index reduces a double-hashing probe to a cell index.
func (f *Filter) index(h uint64) uint64 {
	if f.shape.mask != 0 {
		return h & f.shape.mask
	}
	return h % uint64(len(f.cells))
}

// Config configures a Filter.
type Config struct {
	// Cells is the array size m. Default 1 << 16.
	Cells int
	// Hashes is k, the cells touched per key. Default 4.
	Hashes int
	// Seed drives the hash family; fixed default keeps runs reproducible.
	Seed uint64
	// Decay law; required.
	Decay Decay
}

func (c *Config) setDefaults() {
	if c.Cells <= 0 {
		c.Cells = 1 << 16
	}
	if c.Hashes <= 0 {
		c.Hashes = 4
	}
}

// New builds a Filter. It panics if no decay law is supplied: a
// time-decaying filter without a decay law is a programming error, not a
// runtime condition.
func New(cfg Config) *Filter {
	cfg.setDefaults()
	if cfg.Decay == nil {
		panic("tdbf: Config.Decay is required")
	}
	return &Filter{
		cells: make([]cell, cfg.Cells),
		k:     cfg.Hashes,
		seed:  cfg.Seed,
		decay: cfg.Decay,
		shape: shapeOf(cfg.Cells, cfg.Decay),
	}
}

// Decay returns the filter's decay law.
func (f *Filter) Decay() Decay { return f.decay }

// Cells returns the array size m.
func (f *Filter) Cells() int { return len(f.cells) }

// Hashes returns k.
func (f *Filter) Hashes() int { return f.k }

// SizeBytes returns the state footprint (16 B per cell: mass + timestamp).
func (f *Filter) SizeBytes() int { return len(f.cells) * 16 }

// Adds returns the number of Add calls since construction or Reset.
func (f *Filter) Adds() int64 { return f.adds }

// Add records weight w for key at time now (ns) and returns the key's
// estimate after the add — the minimum of the k cells just written, bit
// for bit what Estimate(key, now) would return next. Timestamps must be
// non-decreasing across calls; the experiments replay time-sorted traces,
// which guarantees this.
//
// Cells that were last touched at the same instant share one decay
// factor (a heavy key's k cells usually were: by that key's previous
// packet), so under the exponential law they cost one exp, not k. The
// product is the one Exponential.Apply forms, so cell contents do not
// depend on which route computed them.
func (f *Filter) Add(key uint64, w float64, now int64) float64 {
	f.adds++
	h1, h2 := hashx.Indices2(key, f.seed)
	var factorDt int64
	var factor float64
	for i := 0; i < f.k; i++ {
		c := &f.cells[f.index(h1+uint64(i)*h2)]
		if dt := now - c.touch; dt > 0 && c.v > 0 {
			if f.shape.tau == 0 {
				c.v = f.decay.Apply(c.v, time.Duration(dt))
			} else {
				if dt != factorDt {
					factorDt, factor = dt, math.Exp(-float64(dt)/f.shape.tau)
				}
				// The conversion keeps the product rounded before w is
				// added on targets that would otherwise fuse the two.
				c.v = float64(c.v * factor)
			}
		}
		c.touch = now
		c.v += w
	}
	// A second walk, because two probes may land on one cell (k > m, or m
	// sharing a factor with the stride): its value is final only now.
	min := math.Inf(1)
	for i := 0; i < f.k; i++ {
		if v := f.cells[f.index(h1+uint64(i)*h2)].v; v < min {
			min = v
		}
	}
	return min
}

// Estimate returns the filter's estimate of key's decayed mass at time
// now: the minimum over its k cells, each decayed (read-only) to now. The
// result never falls below the key's true decayed mass.
func (f *Filter) Estimate(key uint64, now int64) float64 {
	h1, h2 := hashx.Indices2(key, f.seed)
	min := math.Inf(1)
	for i := 0; i < f.k; i++ {
		c := f.cells[f.index(h1+uint64(i)*h2)]
		v := c.v
		if dt := now - c.touch; dt > 0 && v > 0 {
			v = f.decay.Apply(v, time.Duration(dt))
		}
		if v < min {
			min = v
		}
	}
	return min
}

// Merge folds filter o into f cell by cell; o is not modified. Both
// filters must share shape (cells, hashes), seed and decay law, so that a
// key maps to the same cells in both — the sharded pipeline builds every
// shard's filters from one config for exactly this reason.
//
// Each cell pair is decayed to the later of the two touch timestamps and
// then summed. Decay laws compose over time, so decaying the earlier cell
// forward is exactly the mass it would hold had it been left untouched
// until then, and the sum of two per-cell upper bounds is an upper bound
// for the union stream: the merged filter keeps the conservative
// never-underestimate guarantee, overestimating only through the same
// collision mechanism as a single filter over the combined stream.
func (f *Filter) Merge(o *Filter) {
	if o == nil {
		return
	}
	if len(f.cells) != len(o.cells) || f.k != o.k || f.seed != o.seed || f.shape.law != o.shape.law {
		panic("tdbf: Filter.Merge shape/seed/decay mismatch")
	}
	for i := range f.cells {
		c := &f.cells[i]
		oc := o.cells[i]
		t := c.touch
		if oc.touch > t {
			t = oc.touch
		}
		v := c.v
		if dt := t - c.touch; dt > 0 && v > 0 {
			v = f.decay.Apply(v, time.Duration(dt))
		}
		ov := oc.v
		if dt := t - oc.touch; dt > 0 && ov > 0 {
			ov = f.decay.Apply(ov, time.Duration(dt))
		}
		c.v, c.touch = v+ov, t
	}
	f.adds += o.adds
}

// Reset clears all cells.
func (f *Filter) Reset() {
	for i := range f.cells {
		f.cells[i] = cell{}
	}
	f.adds = 0
}

// MassTracker is a single decayed accumulator with the same on-demand
// discipline as a filter cell. The continuous detector uses one to track
// total decayed traffic mass, the denominator of its relative thresholds.
type MassTracker struct {
	decay Decay
	law   string // decay.String(), the identity Merge compares
	v     float64
	touch int64
}

// NewMassTracker builds a tracker under the given law.
func NewMassTracker(d Decay) *MassTracker {
	if d == nil {
		panic("tdbf: decay law required")
	}
	return &MassTracker{decay: d, law: d.String()}
}

// Add folds weight w observed at now into the tracker and returns the
// mass after the add, which is what Value(now) would return next.
func (t *MassTracker) Add(w float64, now int64) float64 {
	if dt := now - t.touch; dt > 0 && t.v > 0 {
		t.v = t.decay.Apply(t.v, time.Duration(dt))
	}
	t.touch = now
	t.v += w
	return t.v
}

// Value returns the decayed mass at now.
func (t *MassTracker) Value(now int64) float64 {
	v := t.v
	if dt := now - t.touch; dt > 0 && v > 0 {
		v = t.decay.Apply(v, time.Duration(dt))
	}
	return v
}

// Merge folds tracker o into t: both are decayed to the later touch
// timestamp and summed, the single-cell case of Filter.Merge. The decay
// laws must match.
func (t *MassTracker) Merge(o *MassTracker) {
	if o == nil {
		return
	}
	if t.law != o.law {
		panic("tdbf: MassTracker.Merge decay mismatch")
	}
	at := t.touch
	if o.touch > at {
		at = o.touch
	}
	v := t.v
	if dt := at - t.touch; dt > 0 && v > 0 {
		v = t.decay.Apply(v, time.Duration(dt))
	}
	ov := o.v
	if dt := at - o.touch; dt > 0 && ov > 0 {
		ov = t.decay.Apply(ov, time.Duration(dt))
	}
	t.v, t.touch = v+ov, at
}

// Reset clears the tracker.
func (t *MassTracker) Reset() { t.v, t.touch = 0, 0 }
