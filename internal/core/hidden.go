package core

import (
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/trace"
)

// HiddenHHHConfig parameterises the Figure-2 experiment: disjoint windows
// of each configured size are compared against a sliding window of the
// same size advancing by Step, at each threshold fraction.
type HiddenHHHConfig struct {
	// Windows are the window lengths to evaluate (the paper uses 5, 10
	// and 20 s).
	Windows []time.Duration
	// Step is the sliding-window advance (the paper uses 1 s). Must
	// divide every window length.
	Step time.Duration
	// Phis are the HHH threshold fractions of per-window byte volume (the
	// paper uses 1%, 5% and 10%).
	Phis []float64
	// Span is the analysed trace duration (ns since epoch 0).
	Span int64
	// Hierarchy is the prefix lattice the analysis runs over. Defaults
	// to the IPv4 byte ladder.
	Hierarchy addr.Hierarchy
}

func (c *HiddenHHHConfig) setDefaults() {
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
	if c.Step == 0 {
		c.Step = time.Second
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second}
	}
	if len(c.Phis) == 0 {
		c.Phis = []float64{0.01, 0.05, 0.10}
	}
}

// HiddenHHHResult is one (window size, threshold) cell of Figure 2.
type HiddenHHHResult struct {
	Window time.Duration
	Phi    float64

	// Distinct-prefix accounting over the whole trace: S is everything
	// the sliding window reports, D what disjoint windows report. With
	// aligned steps D ⊆ S, so Hidden = S − D.
	SlidingDistinct  int
	DisjointDistinct int
	HiddenDistinct   int
	// HiddenPct is 100·|S\D|/|S|, the quantity Figure 2 plots.
	HiddenPct float64

	// Instance accounting: total HHH reports summed over positions, a
	// secondary view of how much information the window models produce.
	SlidingInstances  int
	DisjointInstances int

	// HiddenSet lists the prefixes only the sliding window saw.
	HiddenSet hhh.Set
}

// HiddenHHH runs the Figure-2 analysis over the time-ordered trace pkts.
// For every window size it makes one sliding pass of the exact cursor;
// because Step divides the window size and both models share origin 0,
// the disjoint windows are exactly the sliding positions whose start is a
// multiple of the window size, so both models are evaluated on identical
// aggregates in a single pass.
func HiddenHHH(pkts []trace.Packet, cfg HiddenHHHConfig) ([]HiddenHHHResult, error) {
	cfg.setDefaults()
	o := oracle.FromTrace(cfg.Hierarchy, pkts)
	var out []HiddenHHHResult
	for _, w := range cfg.Windows {
		if err := checkTiling(w, cfg.Step, cfg.Span); err != nil {
			return nil, err
		}
		type acc struct {
			sliding, disjoint   hhh.Set
			slidingN, disjointN int
		}
		accs := make([]acc, len(cfg.Phis))
		for i := range accs {
			accs[i].sliding = hhh.NewSet()
			accs[i].disjoint = hhh.NewSet()
		}
		cur := o.Cursor()
		for lo := int64(0); lo+int64(w) <= cfg.Span; lo += int64(cfg.Step) {
			leaves := cur.Move(lo, lo+int64(w))
			for i, phi := range cfg.Phis {
				set := exactSet(leaves, cfg.Hierarchy, phi)
				accs[i].sliding.UnionInPlace(set)
				accs[i].slidingN += set.Len()
				if lo%int64(w) == 0 {
					accs[i].disjoint.UnionInPlace(set)
					accs[i].disjointN += set.Len()
				}
			}
		}
		for i, phi := range cfg.Phis {
			hidden := accs[i].sliding.Diff(accs[i].disjoint)
			out = append(out, HiddenHHHResult{
				Window:            w,
				Phi:               phi,
				SlidingDistinct:   accs[i].sliding.Len(),
				DisjointDistinct:  accs[i].disjoint.Len(),
				HiddenDistinct:    hidden.Len(),
				HiddenPct:         pct(hidden.Len(), accs[i].sliding.Len()),
				SlidingInstances:  accs[i].slidingN,
				DisjointInstances: accs[i].disjointN,
				HiddenSet:         hidden,
			})
		}
	}
	return out, nil
}

// RenderHiddenHHH formats results as the Figure-2 table.
func RenderHiddenHHH(results []HiddenHHHResult) string {
	t := metrics.NewTable("window", "phi%", "sliding", "disjoint", "hidden", "hidden%")
	for _, r := range results {
		t.AddRow(r.Window, 100*r.Phi, r.SlidingDistinct, r.DisjointDistinct,
			r.HiddenDistinct, r.HiddenPct)
	}
	return t.String()
}
