package tdbf

import (
	"fmt"
	"math"
	"time"

	"hiddenhhh/internal/hashx"
)

// The lazy reference: the filter as it was before forward decay, kept
// verbatim as the oracle the forward-decayed Filter is compared against.
// Every cell carries the timestamp of its last touch and is decayed on
// demand, to the instant of the access, through a Decay law — which is why
// it supports the leaky-bucket law as well, whose clamp at zero forward
// decay cannot express.

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

type lazyCell struct {
	v     float64
	touch int64 // ns timestamp of last decay application
}

// lazyFilter is the on-demand time-decaying Bloom filter.
type lazyFilter struct {
	cells []lazyCell
	k     int
	seed  uint64
	decay Decay
	mask  uint64  // len(cells)-1 when a power of two, else zero
	tau   float64 // ns when the law is Exponential, else zero

	adds int64
}

// newLazy builds the reference with cfg's shape and seed under law d.
func newLazy(cfg Config, d Decay) *lazyFilter {
	cfg = cfg.WithDefaults()
	f := &lazyFilter{cells: make([]lazyCell, cfg.Cells), k: cfg.Hashes, seed: cfg.Seed, decay: d}
	if cfg.Cells&(cfg.Cells-1) == 0 {
		f.mask = uint64(cfg.Cells - 1)
	}
	if e, ok := d.(Exponential); ok {
		f.tau = float64(e.Tau)
	}
	return f
}

func (f *lazyFilter) index(h uint64) uint64 {
	if f.mask != 0 {
		return h & f.mask
	}
	return h % uint64(len(f.cells))
}

// Add decays each of the key's cells to now, adds w, and returns the
// minimum. Cells last touched at the same instant share one exp.
func (f *lazyFilter) Add(key uint64, w float64, now int64) float64 {
	f.adds++
	h1, h2 := hashx.Probes2(key, hashx.Premix(f.seed))
	var factorDt int64
	var factor float64
	for i := 0; i < f.k; i++ {
		c := &f.cells[f.index(h1+uint64(i)*h2)]
		if dt := now - c.touch; dt > 0 && c.v > 0 {
			if f.tau == 0 {
				c.v = f.decay.Apply(c.v, time.Duration(dt))
			} else {
				if dt != factorDt {
					factorDt, factor = dt, math.Exp(-float64(dt)/f.tau)
				}
				c.v = float64(c.v * factor)
			}
		}
		c.touch = now
		c.v += w
	}
	min := math.Inf(1)
	for i := 0; i < f.k; i++ {
		if v := f.cells[f.index(h1+uint64(i)*h2)].v; v < min {
			min = v
		}
	}
	return min
}

// Estimate is the minimum over the key's cells, each decayed (read-only)
// to now.
func (f *lazyFilter) Estimate(key uint64, now int64) float64 {
	h1, h2 := hashx.Probes2(key, hashx.Premix(f.seed))
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

// Merge decays each cell pair to the later of the two touch timestamps
// and sums it.
func (f *lazyFilter) Merge(o *lazyFilter) {
	for i := range f.cells {
		c := &f.cells[i]
		oc := o.cells[i]
		t := max(c.touch, oc.touch)
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
func (f *lazyFilter) Reset() {
	clear(f.cells)
	f.adds = 0
}
