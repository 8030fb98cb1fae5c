// Package core implements the paper's analyses — the experiments behind
// Figure 2 (hidden hierarchical heavy hitters under disjoint windows),
// Figure 3 (sensitivity of HHH reports to micro variations in window
// size), and the Section-3 evaluation of time-decaying continuous
// detection against windowed approaches.
//
// Each experiment takes a time-ordered in-memory trace (usually the
// synthetic Tier-1 generator standing in for the paper's CAIDA traces) and
// returns structured results that cmd/hhheval renders as the
// corresponding table. Exact per-window aggregates come from the exact
// reference, an oracle.Cursor walked forward over the trace; every
// detector is a pipeline.Single, the driver behind the public detectors,
// so the experiments measure the live system.
package core

import (
	"fmt"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
)

// checkTiling holds a sliding walk of width-long windows, one every step
// from 0, to what makes its disjoint windows a subset of its positions:
// step divides width, and [0, span) holds at least one window.
func checkTiling(width, step time.Duration, span int64) error {
	if width <= 0 || step <= 0 || width%step != 0 {
		return fmt.Errorf("core: step %v does not divide window %v", step, width)
	}
	if span < int64(width) {
		return fmt.Errorf("core: span %v shorter than window %v", time.Duration(span), width)
	}
	return nil
}

// exactSet is the exact HHH set of a window's leaf aggregate at threshold
// fraction phi of the window's bytes.
func exactSet(leaves *sketch.Exact, h addr.Hierarchy, phi float64) hhh.Set {
	return hhh.Exact(leaves, h, hhh.Threshold(leaves.Total(), phi))
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
