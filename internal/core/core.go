// Package core implements the paper's analyses — the experiments behind
// Figure 2 (hidden hierarchical heavy hitters under disjoint windows),
// Figure 3 (sensitivity of HHH reports to micro variations in window
// size), and the Section-3 evaluation of time-decaying continuous
// detection against windowed approaches.
//
// Each experiment consumes a reproducible packet source (usually the
// synthetic Tier-1 generator standing in for the paper's CAIDA traces)
// and returns structured results that cmd/hhheval renders as the
// corresponding table. Exact per-window aggregates come from
// internal/window; every detector is a pipeline.Single, the driver behind
// the public detectors, so the experiments measure the live system.
package core

import (
	"hiddenhhh/internal/trace"
)

// Provider produces a fresh, identical packet source per call. Experiments
// that make several passes over the trace (one per window size, one per
// detector) call it repeatedly; providers backed by the seeded generator
// or by a trace file satisfy the "identical" requirement naturally.
type Provider func() (trace.Source, error)

// SliceProvider adapts an in-memory trace to a Provider.
func SliceProvider(pkts []trace.Packet) Provider {
	return func() (trace.Source, error) {
		return trace.NewSliceSource(pkts), nil
	}
}

// FileProvider reopens the binary trace at path per pass.
func FileProvider(path string) Provider {
	return func() (trace.Source, error) {
		src, closer, err := trace.OpenFile(path)
		if err != nil {
			return nil, err
		}
		// The experiments drain sources fully; closing on EOF via a
		// wrapper keeps the Provider interface minimal.
		return &closingSource{Source: src, c: closer}, nil
	}
}

type closingSource struct {
	trace.Source
	c interface{ Close() error }
}

func (s *closingSource) Next(p *trace.Packet) error {
	err := s.Source.Next(p)
	if err != nil && s.c != nil {
		s.c.Close()
		s.c = nil
	}
	return err
}

// pct renders a fraction as a percentage value.
func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// ratio guards division by zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
