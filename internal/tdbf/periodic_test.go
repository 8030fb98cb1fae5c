package tdbf

import "time"

// PeriodicFilter is the classical eager-refresh time-decaying Bloom
// filter: instead of decaying cells on demand, the whole array is decayed
// in bulk every Tick. It exists as the baseline that Bianchi et al.'s
// on-demand design replaces — estimates agree with Filter up to tick
// quantisation, but updates between ticks pay nothing for decay while
// every tick pays O(m).
//
// The refresh is driven by the data timestamps (advance happens inside Add
// and Estimate), so replays remain deterministic and no goroutines or wall
// clocks are involved.
type PeriodicFilter struct {
	inner   Filter // reuse cell array and hashing; decay applied eagerly
	tick    time.Duration
	lastRef int64 // timestamp of the last refresh boundary
	sweeps  int64
}

// NewPeriodic builds a PeriodicFilter refreshing every tick.
func NewPeriodic(cfg Config, tick time.Duration) *PeriodicFilter {
	if tick <= 0 {
		panic("tdbf: refresh tick must be positive")
	}
	f := New(cfg)
	return &PeriodicFilter{inner: *f, tick: tick}
}

// advance applies any refresh sweeps due strictly before now.
func (p *PeriodicFilter) advance(now int64) {
	for now-p.lastRef >= int64(p.tick) {
		p.lastRef += int64(p.tick)
		p.sweeps++
		for i := range p.inner.cells {
			c := &p.inner.cells[i]
			if c.v > 0 {
				c.v = p.inner.decay.Apply(c.v, p.tick)
			}
			c.touch = p.lastRef
		}
	}
}

// Add records weight w for key at time now.
func (p *PeriodicFilter) Add(key uint64, w float64, now int64) {
	p.advance(now)
	// Cells are all current as of lastRef; add without further decay by
	// touching with the refresh timestamp.
	p.inner.Add(key, w, p.lastRef)
}

// Estimate returns the estimate of key's mass as of the last refresh
// boundary at or before now.
func (p *PeriodicFilter) Estimate(key uint64, now int64) float64 {
	p.advance(now)
	return p.inner.Estimate(key, p.lastRef)
}

// Sweeps returns how many full-array refreshes have run, the cost metric
// that distinguishes this design from the on-demand filter.
func (p *PeriodicFilter) Sweeps() int64 { return p.sweeps }

// SizeBytes returns the state footprint.
func (p *PeriodicFilter) SizeBytes() int { return p.inner.SizeBytes() }

// Reset clears all cells and the refresh clock.
func (p *PeriodicFilter) Reset() {
	p.inner.Reset()
	p.lastRef = 0
	p.sweeps = 0
}
