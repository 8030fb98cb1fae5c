package tdbf

import (
	"math"
	"time"

	"hiddenhhh/internal/hashx"
)

// PeriodicFilter is the classical eager-refresh time-decaying Bloom
// filter: instead of decaying cells on demand, the whole array is decayed
// in bulk every Tick. It exists as the baseline that Bianchi et al.'s
// on-demand design replaces — estimates agree with Filter up to tick
// quantisation, but updates between ticks pay nothing for decay while
// every tick pays O(m). It keeps its own cell array and applies its law
// through Decay.Apply only, so it shares no arithmetic with Filter and
// stays an independent oracle for it.
//
// The refresh is driven by the data timestamps (advance happens inside Add
// and Estimate), so replays remain deterministic and no goroutines or wall
// clocks are involved.
type PeriodicFilter struct {
	cells   []float64 // all current as of lastRef
	k       int
	seed    uint64
	law     Decay
	tick    time.Duration
	lastRef int64 // timestamp of the last refresh boundary
	sweeps  int64
}

// NewPeriodic builds a PeriodicFilter of cfg's shape and seed, decaying
// under law and refreshing every tick.
func NewPeriodic(cfg Config, law Decay, tick time.Duration) *PeriodicFilter {
	if tick <= 0 {
		panic("tdbf: refresh tick must be positive")
	}
	cfg = cfg.WithDefaults()
	return &PeriodicFilter{cells: make([]float64, cfg.Cells), k: cfg.Hashes, seed: cfg.Seed, law: law, tick: tick}
}

// advance applies any refresh sweeps due strictly before now.
func (p *PeriodicFilter) advance(now int64) {
	for now-p.lastRef >= int64(p.tick) {
		p.lastRef += int64(p.tick)
		p.sweeps++
		for i, v := range p.cells {
			if v > 0 {
				p.cells[i] = p.law.Apply(v, p.tick)
			}
		}
	}
}

// Add records weight w for key at time now: the cells are all current as
// of lastRef, so the weight goes in without further decay.
func (p *PeriodicFilter) Add(key uint64, w float64, now int64) {
	p.advance(now)
	h1, h2 := hashx.Probes2(key, hashx.Premix(p.seed))
	for i := 0; i < p.k; i++ {
		p.cells[(h1+uint64(i)*h2)%uint64(len(p.cells))] += w
	}
}

// Estimate returns the estimate of key's mass as of the last refresh
// boundary at or before now.
func (p *PeriodicFilter) Estimate(key uint64, now int64) float64 {
	p.advance(now)
	h1, h2 := hashx.Probes2(key, hashx.Premix(p.seed))
	min := math.Inf(1)
	for i := 0; i < p.k; i++ {
		min = math.Min(min, p.cells[(h1+uint64(i)*h2)%uint64(len(p.cells))])
	}
	return min
}

// Sweeps returns how many full-array refreshes have run, the cost metric
// that distinguishes this design from the on-demand filter.
func (p *PeriodicFilter) Sweeps() int64 { return p.sweeps }

// SizeBytes returns the state footprint.
func (p *PeriodicFilter) SizeBytes() int { return len(p.cells) * 8 }

// Reset clears all cells and the refresh clock.
func (p *PeriodicFilter) Reset() {
	clear(p.cells)
	p.lastRef = 0
	p.sweeps = 0
}
